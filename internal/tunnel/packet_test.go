package tunnel

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"peering/internal/dataplane"
)

// samePacket compares every field the wire carries.
func samePacket(a, b *dataplane.Packet) bool {
	return a.ID == b.ID && a.Src == b.Src && a.Dst == b.Dst && a.TTL == b.TTL &&
		a.Proto == b.Proto && a.ICMP == b.ICMP && a.SrcPort == b.SrcPort &&
		a.DstPort == b.DstPort && a.Seq == b.Seq && a.Orig == b.Orig &&
		bytes.Equal(a.Payload, b.Payload) && len(a.Trace) == len(b.Trace)
}

// channelFrame is pkt as it travels on the packet channel.
func channelFrame(t testing.TB, pkt *dataplane.Packet) []byte {
	t.Helper()
	b, err := EncodePacket(pkt)
	if err != nil {
		t.Fatal(err)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(b))), b...)
}

// recv takes the next delivery off a handler's channel.
func recv[T any](t testing.TB, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatal("packet not delivered")
		panic("unreachable")
	}
}

// The tunnel decodes every packet into the same Packet and buffer: what
// a handler is given is valid only until it returns, and a handler that
// keeps a packet keeps a Clone. The second packet here overwrites the
// first in place, so a retained pointer shows the wrong packet — which
// is what a handler that forgets to Clone would see.
func TestHandlerPacketValidOnlyDuringCall(t *testing.T) {
	ma, mb := muxPair(nil, nil)
	defer ma.Close()
	defer mb.Close()
	type seen struct{ raw, clone *dataplane.Packet }
	got := make(chan seen, 2)
	NewPacketTunnel(mb, func(p *dataplane.Packet) { got <- seen{p, p.Clone()} })
	ptA := NewPacketTunnel(ma, func(*dataplane.Packet) {})

	first := samplePacket()
	second := samplePacket()
	second.ID, second.Dst, second.Payload = 99, netip.MustParseAddr("9.9.9.9"), []byte("overwritten")
	for _, p := range []*dataplane.Packet{first, second} {
		if err := ptA.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	s := [2]seen{recv(t, got), recv(t, got)}
	if !samePacket(s[0].clone, first) || !samePacket(s[1].clone, second) {
		t.Fatalf("clones = %v %q, %v %q", s[0].clone, s[0].clone.Payload, s[1].clone, s[1].clone.Payload)
	}
	// The reader is parked on an empty stream, so reading what it
	// last wrote is ordered after the write by the channel receive.
	if s[0].raw != s[1].raw || !samePacket(s[0].raw, second) {
		t.Fatalf("the tunnel no longer reuses its packet (%p %p): update the ownership rule on NewPacketTunnel", s[0].raw, s[1].raw)
	}
}

// A send→receive round trip allocates nothing once the pools are warm:
// not in Send (pooled encode buffer, one frame), not in the mux (pooled
// frames), not in the reader (one buffer, one Packet).
func TestPacketRoundTripZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ma, mb := muxPair(nil, nil)
	defer ma.Close()
	defer mb.Close()
	done := make(chan struct{}, 1)
	NewPacketTunnel(mb, func(*dataplane.Packet) { done <- struct{}{} })
	ptA := NewPacketTunnel(ma, func(*dataplane.Packet) {})
	pkt := samplePacket()
	roundTrip := func() {
		if err := ptA.Send(pkt); err != nil {
			t.Error(err)
			return
		}
		<-done
	}
	for i := 0; i < 100; i++ {
		roundTrip()
	}
	if n := testing.AllocsPerRun(1000, roundTrip); n != 0 {
		t.Fatalf("packet round trip allocates %.2f times per packet, want 0", n)
	}
}

// The packet channel is a byte stream: however the sender's writes cut
// it — one per packet (Send today), one per byte, or length and body
// apart (Send before) — the receiver sees the same packets. A frame
// whose body does not parse is dropped and the tunnel stays up.
func TestPacketStreamChunking(t *testing.T) {
	var want []*dataplane.Packet
	var wire []byte
	var frames [][]byte
	for i := 0; i < 5; i++ {
		p := samplePacket()
		p.ID, p.Seq = uint64(i+1), i
		p.Payload = bytes.Repeat([]byte{byte('a' + i)}, i*100) // 0 … 400 bytes: crosses the reader's initial buffer
		want = append(want, p)
		f := channelFrame(t, p)
		frames = append(frames, f)
		wire = append(wire, f...)
	}
	// A well-framed body that is not a packet: its declared payload
	// length disagrees with the frame.
	corrupt := channelFrame(t, samplePacket())
	corrupt[lenPrefix+packetHeaderLen-1]++

	splits := map[string]func(write func([]byte)){
		"one write per packet": func(write func([]byte)) {
			for _, f := range frames {
				write(f)
			}
		},
		"one write per byte": func(write func([]byte)) {
			for i := range wire {
				write(wire[i : i+1])
			}
		},
		"length and body apart": func(write func([]byte)) {
			for _, f := range frames {
				write(f[:lenPrefix])
				write(f[lenPrefix:])
			}
		},
		"everything in one write": func(write func([]byte)) { write(wire) },
		"corrupt frame between packets": func(write func([]byte)) {
			write(frames[0])
			write(corrupt)
			write(wire[len(frames[0]):])
		},
	}
	for name, split := range splits {
		t.Run(name, func(t *testing.T) {
			ma, mb := muxPair(nil, nil)
			defer ma.Close()
			defer mb.Close()
			got := make(chan *dataplane.Packet, len(want))
			NewPacketTunnel(mb, func(p *dataplane.Packet) { got <- p.Clone() })
			out := ma.Open(PacketChannel)
			split(func(b []byte) {
				if _, err := out.Write(b); err != nil {
					t.Fatal(err)
				}
			})
			for i, w := range want {
				if p := recv(t, got); !samePacket(p, w) {
					t.Fatalf("packet %d = %v (%d payload bytes), want %v (%d)", i, p, len(p.Payload), w, len(w.Payload))
				}
			}
		})
	}
}

// Send's bytes are the length-prefixed EncodePacket bytes, in one
// frame.
func TestSendIsOneFrame(t *testing.T) {
	ma, mb := muxPair(nil, nil)
	defer ma.Close()
	defer mb.Close()
	in := mb.Open(PacketChannel)
	ptA := NewPacketTunnel(ma, func(*dataplane.Packet) {})
	pkt := samplePacket()
	if err := ptA.Send(pkt); err != nil {
		t.Fatal(err)
	}
	want := channelFrame(t, pkt)
	// Stream.Read returns at most one frame's bytes per call.
	buf := make([]byte, 2*len(want))
	n, err := in.Read(buf)
	if err != nil || !bytes.Equal(buf[:n], want) {
		t.Fatalf("first frame = %x (%v), want %x", buf[:n], err, want)
	}
}

func TestSendRejectsOversizedPacket(t *testing.T) {
	ma, mb := muxPair(nil, nil)
	defer ma.Close()
	defer mb.Close()
	got := make(chan *dataplane.Packet, 1)
	NewPacketTunnel(mb, func(p *dataplane.Packet) { got <- p.Clone() })
	ptA := NewPacketTunnel(ma, func(*dataplane.Packet) {})
	big := samplePacket()
	big.Payload = make([]byte, maxFrame)
	if err := ptA.Send(big); err == nil {
		t.Fatal("oversized packet accepted")
	}
	// Nothing of it was written: the stream is still in step.
	next := samplePacket()
	if err := ptA.Send(next); err != nil {
		t.Fatal(err)
	}
	if p := recv(t, got); !samePacket(p, next) {
		t.Fatalf("after a refused send got %v", p)
	}
}
