package tunnel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"peering/internal/bufconn"
	"peering/internal/dataplane"
)

func muxPair(onNewA, onNewB func(*Stream)) (*Mux, *Mux) {
	ca, cb := bufconn.Pipe()
	return NewMux(ca, onNewA), NewMux(cb, onNewB)
}

func TestStreamRoundTrip(t *testing.T) {
	accepted := make(chan *Stream, 1)
	ma, mb := muxPair(nil, func(s *Stream) { accepted <- s })
	defer ma.Close()
	defer mb.Close()

	sa := ma.Open(7)
	if _, err := sa.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	var sb *Stream
	select {
	case sb = <-accepted:
	case <-time.After(2 * time.Second):
		t.Fatal("acceptor never fired")
	}
	if sb.ID() != 7 {
		t.Fatalf("accepted stream id = %d", sb.ID())
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(sb, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("got %q", buf)
	}
	// Reply path.
	sb.Write([]byte("world"))
	if _, err := io.ReadFull(sa, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Fatalf("got %q", buf)
	}
}

func TestStreamsAreIsolated(t *testing.T) {
	var mu sync.Mutex
	acc := map[uint32]*Stream{}
	ready := make(chan uint32, 8)
	ma, mb := muxPair(nil, func(s *Stream) {
		mu.Lock()
		acc[s.ID()] = s
		mu.Unlock()
		ready <- s.ID()
	})
	defer ma.Close()
	defer mb.Close()

	s1, s2 := ma.Open(1), ma.Open(2)
	s1.Write([]byte("one"))
	s2.Write([]byte("two"))
	<-ready
	<-ready
	mu.Lock()
	r1, r2 := acc[1], acc[2]
	mu.Unlock()
	b1, b2 := make([]byte, 3), make([]byte, 3)
	io.ReadFull(r1, b1)
	io.ReadFull(r2, b2)
	if string(b1) != "one" || string(b2) != "two" {
		t.Fatalf("cross-talk: %q / %q", b1, b2)
	}
}

func TestOpenIsIdempotent(t *testing.T) {
	ma, mb := muxPair(nil, nil)
	defer ma.Close()
	defer mb.Close()
	if ma.Open(5) != ma.Open(5) {
		t.Fatal("Open(5) returned distinct streams")
	}
}

func TestMuxCloseFailsStreams(t *testing.T) {
	ma, mb := muxPair(nil, nil)
	defer mb.Close()
	s := ma.Open(1)
	ma.Close()
	if _, err := s.Read(make([]byte, 1)); err == nil {
		t.Fatal("read on closed mux succeeded")
	}
	select {
	case <-ma.Done():
	case <-time.After(time.Second):
		t.Fatal("Done not closed")
	}
}

func TestPeerDisconnectPropagates(t *testing.T) {
	ma, mb := muxPair(nil, nil)
	s := ma.Open(1)
	mb.Close() // remote side dies
	errCh := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(s, make([]byte, 1))
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("no error after peer disconnect")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader hung after peer disconnect")
	}
}

func TestStreamCloseEOF(t *testing.T) {
	accepted := make(chan *Stream, 1)
	ma, mb := muxPair(nil, func(s *Stream) { accepted <- s })
	defer ma.Close()
	defer mb.Close()
	sa := ma.Open(3)
	sa.Write([]byte("x"))
	sb := <-accepted
	io.ReadFull(sb, make([]byte, 1))
	sa.Close()
	if _, err := sa.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after close = %v, want EOF", err)
	}
	if _, err := sa.Write([]byte("y")); err == nil {
		t.Fatal("write after close succeeded")
	}
}

func TestUnsolicitedStreamDroppedWithoutAcceptor(t *testing.T) {
	ma, mb := muxPair(nil, nil) // b has no acceptor
	defer ma.Close()
	defer mb.Close()
	s := ma.Open(9)
	if _, err := s.Write([]byte("ignored")); err != nil {
		t.Fatal(err)
	}
	// Later frames for the same unknown id are also dropped; the mux
	// stays healthy.
	if _, err := s.Write([]byte("still ignored")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-mb.Done():
		t.Fatal("mux died on unsolicited stream")
	case <-time.After(50 * time.Millisecond):
	}
}

func samplePacket() *dataplane.Packet {
	p := dataplane.NewPacket(netip.MustParseAddr("100.64.0.1"), netip.MustParseAddr("8.8.8.8"), dataplane.ProtoUDP)
	p.SrcPort, p.DstPort = 5353, 53
	p.Seq = 42
	p.Payload = []byte("dns query")
	return p
}

func TestPacketCodecRoundTrip(t *testing.T) {
	p := samplePacket()
	p.ICMP = dataplane.ICMPEchoRequest
	p.Orig = 77
	b, err := EncodePacket(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePacket(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != p.ID || got.Src != p.Src || got.Dst != p.Dst || got.TTL != p.TTL ||
		got.Proto != p.Proto || got.ICMP != p.ICMP || got.SrcPort != p.SrcPort ||
		got.DstPort != p.DstPort || got.Seq != p.Seq || got.Orig != p.Orig ||
		!bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", p, got)
	}
}

func TestPacketCodecRejectsMalformed(t *testing.T) {
	if _, err := DecodePacket([]byte{1, 2, 3}); err == nil {
		t.Fatal("short frame accepted")
	}
	p := samplePacket()
	b, _ := EncodePacket(p)
	if _, err := DecodePacket(b[:len(b)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, err := DecodePacket(append(b, 0)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

// Property: the packet codec round-trips arbitrary field values.
func TestQuickPacketCodec(t *testing.T) {
	f := func(id uint64, srcB, dstB [4]byte, ttl, proto, icmp uint8, sp, dp uint16, seq uint32, payload []byte) bool {
		p := &dataplane.Packet{
			ID: id, Src: netip.AddrFrom4(srcB), Dst: netip.AddrFrom4(dstB),
			TTL: ttl, Proto: dataplane.Proto(proto), ICMP: dataplane.ICMPType(icmp),
			SrcPort: sp, DstPort: dp, Seq: int(seq), Payload: payload,
		}
		b, err := EncodePacket(p)
		if err != nil {
			return false
		}
		got, err := DecodePacket(b)
		if err != nil {
			return false
		}
		return got.ID == p.ID && got.Src == p.Src && got.Dst == p.Dst &&
			got.TTL == p.TTL && got.Proto == p.Proto && got.Seq == p.Seq &&
			bytes.Equal(got.Payload, p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketTunnelEndToEnd(t *testing.T) {
	recvA := make(chan *dataplane.Packet, 8)
	recvB := make(chan *dataplane.Packet, 8)
	var ptB *PacketTunnel
	ready := make(chan struct{})
	ma, mb := muxPair(nil, nil)
	defer ma.Close()
	defer mb.Close()
	// B adopts the packet channel lazily via acceptor… but the packet
	// channel is conventionally pre-opened on both sides:
	ptA := NewPacketTunnel(ma, func(p *dataplane.Packet) { recvA <- p.Clone() })
	ptB = NewPacketTunnel(mb, func(p *dataplane.Packet) { recvB <- p.Clone() })
	close(ready)

	if err := ptA.Send(samplePacket()); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-recvB:
		if string(p.Payload) != "dns query" {
			t.Fatalf("payload = %q", p.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("packet not delivered A→B")
	}
	// Reverse direction.
	back := samplePacket()
	back.Payload = []byte("response")
	if err := ptB.Send(back); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-recvA:
		if string(p.Payload) != "response" {
			t.Fatalf("payload = %q", p.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("packet not delivered B→A")
	}
}

func TestTraceNotSerialized(t *testing.T) {
	p := samplePacket()
	p.Trace = []netip.Addr{netip.MustParseAddr("10.0.0.1")}
	b, _ := EncodePacket(p)
	got, _ := DecodePacket(b)
	if len(got.Trace) != 0 {
		t.Fatal("Trace crossed the tunnel — emulation metadata leaked")
	}
}

func TestManyStreamsConcurrent(t *testing.T) {
	const n = 64
	var mu sync.Mutex
	acc := map[uint32]*Stream{}
	ready := make(chan struct{}, n)
	ma, mb := muxPair(nil, func(s *Stream) {
		mu.Lock()
		acc[s.ID()] = s
		mu.Unlock()
		ready <- struct{}{}
	})
	defer ma.Close()
	defer mb.Close()
	var wg sync.WaitGroup
	for i := uint32(1); i <= n; i++ {
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			s := ma.Open(id)
			s.Write([]byte{byte(id)})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		select {
		case <-ready:
		case <-time.After(5 * time.Second):
			t.Fatal("not all streams accepted")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for id, s := range acc {
		b := make([]byte, 1)
		if _, err := io.ReadFull(s, b); err != nil || b[0] != byte(id) {
			t.Fatalf("stream %d: %v %v", id, b, err)
		}
	}
}

// callConn counts the write calls a Mux makes on its transport.
type callConn struct {
	*bufconn.Conn
	writes, vectored atomic.Int32
}

func (c *callConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *callConn) WriteBuffers(bufs net.Buffers) (int64, error) {
	c.vectored.Add(1)
	return c.Conn.WriteBuffers(bufs)
}

// patterned returns buffers of the given sizes filled with bytes that
// differ buffer to buffer and position to position.
func patterned(sizes ...int) net.Buffers {
	bufs := make(net.Buffers, len(sizes))
	for i, n := range sizes {
		bufs[i] = make([]byte, n)
		for k := range bufs[i] {
			bufs[i][k] = byte(i*31 + k*7)
		}
	}
	return bufs
}

// readFrames reads raw frames off conn until they carry want payload
// bytes, returning each frame's stream ID and payload.
func readFrames(t *testing.T, conn io.Reader, want int) (ids []uint32, payloads [][]byte) {
	t.Helper()
	for got := 0; got < want; {
		var hdr [frameHeaderLen]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatal(err)
		}
		p := make([]byte, binary.BigEndian.Uint32(hdr[4:]))
		if _, err := io.ReadFull(conn, p); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, binary.BigEndian.Uint32(hdr[:4]))
		payloads = append(payloads, p)
		got += len(p)
	}
	return ids, payloads
}

// TestWriteBuffersFramesAtBufferBoundaries: WriteBuffers packs buffers
// greedily into frames of at most maxFrame payload bytes, cuts only
// between buffers (an empty buffer costs nothing), and hands the
// transport all of it in one vectored call.
func TestWriteBuffersFramesAtBufferBoundaries(t *testing.T) {
	ca, cb := bufconn.Pipe()
	cc := &callConn{Conn: ca}
	m := NewMux(cc, nil)
	defer m.Close()
	defer cb.Close()
	bufs := patterned(300<<10, 400<<10, 0, 500<<10, 7, maxFrame, 1)
	want := bytes.Join(bufs, nil)
	done := make(chan error, 1)
	go func() {
		n, err := m.Open(5).WriteBuffers(bufs)
		if err == nil && n != int64(len(want)) {
			err = fmt.Errorf("WriteBuffers reported %d bytes, want %d", n, len(want))
		}
		done <- err
	}()
	ids, payloads := readFrames(t, cb, len(want))
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var lens []int
	for i, p := range payloads {
		if ids[i] != 5 {
			t.Fatalf("frame %d on stream %d, want 5", i, ids[i])
		}
		if len(p) > maxFrame {
			t.Fatalf("frame %d carries %d bytes, over maxFrame", i, len(p))
		}
		lens = append(lens, len(p))
	}
	if wantLens := []int{700 << 10, 500<<10 + 7, maxFrame, 1}; fmt.Sprint(lens) != fmt.Sprint(wantLens) {
		t.Fatalf("frames of %v bytes, want %v (greedy, cut between buffers only)", lens, wantLens)
	}
	if !bytes.Equal(bytes.Join(payloads, nil), want) {
		t.Fatal("the frames' payloads differ from the buffers'")
	}
	if w, v := cc.writes.Load(), cc.vectored.Load(); w != 0 || v != 1 {
		t.Fatalf("%d plain and %d vectored transport writes, want 0 and 1", w, v)
	}
}

// TestWriteBuffersRefusesOversizedBuffer: a buffer is never split, so
// one over maxFrame fails the call and nothing reaches the transport.
func TestWriteBuffersRefusesOversizedBuffer(t *testing.T) {
	ca, cb := bufconn.Pipe()
	cc := &callConn{Conn: ca}
	m := NewMux(cc, nil)
	defer m.Close()
	defer cb.Close()
	if _, err := m.Open(5).WriteBuffers(patterned(10, maxFrame+1)); err == nil {
		t.Fatal("a buffer over maxFrame was accepted")
	}
	if _, err := m.Open(5).Write(make([]byte, maxFrame+1)); err == nil {
		t.Fatal("a Write over maxFrame was accepted")
	}
	if w, v, n := cc.writes.Load(), cc.vectored.Load(), cb.Buffered(); w+v != 0 || n != 0 {
		t.Fatalf("refused writes reached the transport: %d calls, %d bytes", w+v, n)
	}
}

// TestWriteBuffersPeerReadsIdenticalStream: what a peer's stream reads
// is the byte stream written, whatever mix of small and vectored
// writes carried it.
func TestWriteBuffersPeerReadsIdenticalStream(t *testing.T) {
	accepted := make(chan *Stream, 1)
	ma, mb := muxPair(nil, func(s *Stream) { accepted <- s })
	defer ma.Close()
	defer mb.Close()
	sa := ma.Open(9)
	writes := []net.Buffers{
		patterned(5), patterned(100, 0, 3), patterned(70<<10, 1, 900<<10), patterned(stageMax + 1),
	}
	var want []byte
	for _, bufs := range writes {
		want = append(append(want, bytes.Join(bufs, nil)...), '|')
	}
	go func() {
		for _, bufs := range writes {
			sa.WriteBuffers(bufs)
			sa.Write([]byte("|"))
		}
	}()
	sb := <-accepted
	got := make([]byte, len(want))
	if _, err := io.ReadFull(sb, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the peer read a different byte stream")
	}
}

// TestWriteBuffersClosedStream: a closed stream refuses the write.
func TestWriteBuffersClosedStream(t *testing.T) {
	ma, mb := muxPair(nil, nil)
	defer ma.Close()
	defer mb.Close()
	s := ma.Open(3)
	s.Close()
	if _, err := s.WriteBuffers(patterned(10, 20)); err != io.ErrClosedPipe {
		t.Fatalf("WriteBuffers on a closed stream = %v, want io.ErrClosedPipe", err)
	}
}
