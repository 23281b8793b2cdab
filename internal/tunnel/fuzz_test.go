package tunnel

import (
	"bytes"
	"io"
	"net"
	"testing"

	"peering/internal/bufconn"
	"peering/internal/dataplane"
	"peering/internal/faultconn"
)

// FuzzTunnelFrame checks decode∘encode identity on the packet framing:
// any byte string DecodePacket accepts must re-encode to exactly the
// bytes that were decoded. The format carries no redundancy (no
// checksums, no padding, one canonical field order), so a fixed point
// here means the codec neither drops nor invents information — the
// same invariant the MRT and wire-format fuzzers enforce.
//
// The tunnel's reader decodes into a reused packet (decodePacketInto)
// where DecodePacket allocates: the two must accept exactly the same
// inputs and agree on every field, whatever the reused packet held.
func FuzzTunnelFrame(f *testing.F) {
	// Seeds from the unit-test vectors: the canonical UDP sample, an
	// ICMP variant, an empty payload, and the malformed shapes the
	// codec must keep rejecting.
	seed := func(p *dataplane.Packet) {
		b, err := EncodePacket(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(samplePacket())
	icmp := samplePacket()
	icmp.ICMP = dataplane.ICMPEchoRequest
	icmp.Orig = 77
	seed(icmp)
	empty := samplePacket()
	empty.Payload = nil
	seed(empty)
	f.Add([]byte{1, 2, 3})
	b, _ := EncodePacket(samplePacket())
	f.Add(b[:len(b)-1])
	f.Add(append(bytes.Clone(b), 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := DecodePacket(data)
		reused := samplePacket() // stale fields, payload and trace to overwrite
		reused.Orig, reused.Trace = 5, append(reused.Trace, reused.Src)
		intoErr := decodePacketInto(reused, data)
		if (err == nil) != (intoErr == nil) {
			t.Fatalf("DecodePacket: %v, decodePacketInto: %v", err, intoErr)
		}
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		if !samePacket(pkt, reused) {
			t.Fatalf("decodePacketInto = %+v, DecodePacket = %+v", reused, pkt)
		}
		out, err := EncodePacket(pkt)
		if err != nil {
			t.Fatalf("decoded packet failed to re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("decode∘encode not identity:\n in  %x\n out %x", data, out)
		}
	})
}

// FuzzStreamWriteBuffers checks that a vectored write is transparent:
// payload bytes cut into buffers at arbitrary points (cuts gives the
// buffer lengths, one byte each, empty buffers included) and sent with
// WriteBuffers, then a plain Write, read back on the peer's stream as
// exactly the bytes written — over a bare bufconn pair and over
// faultconn, which takes the call as one write of its own.
func FuzzStreamWriteBuffers(f *testing.F) {
	f.Add([]byte("hello, interdomain world"), []byte{5, 0, 2, 30})
	f.Add([]byte{}, []byte{0, 0})
	f.Add(bytes.Repeat([]byte{0xab}, 5000), []byte{255, 1, 254})
	f.Fuzz(func(t *testing.T, payload, cuts []byte) {
		if len(payload) > maxFrame {
			t.Skip("a buffer over maxFrame is refused; TestWriteBuffersRefusesOversizedBuffer")
		}
		var bufs net.Buffers
		rest := payload
		for _, c := range cuts {
			n := min(int(c), len(rest))
			bufs = append(bufs, rest[:n])
			rest = rest[n:]
		}
		bufs = append(bufs, rest)
		want := append(bytes.Clone(payload), "end"...)

		fa, fb := faultconn.Pipe(nil)
		ba, bb := bufconn.Pipe()
		for _, pair := range [][2]net.Conn{{ba, bb}, {fa, fb}} {
			accepted := make(chan *Stream, 1)
			ma, mb := NewMux(pair[0], nil), NewMux(pair[1], func(s *Stream) { accepted <- s })
			sa := ma.Open(7)
			if n, err := sa.WriteBuffers(bufs); err != nil || n != int64(len(payload)) {
				t.Fatalf("WriteBuffers = %d, %v; want %d, nil", n, err, len(payload))
			}
			if _, err := sa.Write([]byte("end")); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			if _, err := io.ReadFull(<-accepted, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("peer read %x, want %x", got, want)
			}
			ma.Close()
			mb.Close()
		}
	})
}
