// Package tunnel implements the client↔server transport: a stream
// multiplexer that carries many logical channels over one connection
// (the role OpenVPN tunnels + per-peer TCP sessions play in the paper)
// and a packet framing codec for exchanging data-plane traffic.
//
// A PEERING client holds exactly one transport to each server; over it
// run one BGP session per upstream peer (Quagga mode), or a single
// multiplexed session (BIRD/ADD-PATH mode), plus the data-plane packet
// channel. Channel 0 is reserved for packets; channels ≥1 are opened by
// the client, one per upstream peer session.
//
// On the wire a stream's bytes travel in frames, [stream ID | length |
// payload], and every write is one call on the underlying conn, so a
// transport that loses whole calls never leaves half a frame. A small
// Write (a packet, a BGP message) is copied in behind its header.
// WriteBuffers takes many payloads at once — a fan-out flusher's whole
// drain for one session — packs them into as few frames as maxFrame
// allows, and hands the conn one vectored write of the headers and the
// payloads themselves: encode-once bytes are never copied on their way
// to the transport (DESIGN.md §15).
//
// A packet crosses as one frame, [len | header | payload], and is
// decoded into a Packet and a buffer the tunnel reuses: what a packet
// handler is given is valid only until it returns (DESIGN.md §16).
package tunnel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"peering/internal/bufpool"
)

// PacketChannel is the stream ID reserved for data-plane packets.
const PacketChannel uint32 = 0

// maxFrame bounds a single mux frame (header excluded).
const maxFrame = 1 << 20

// Mux multiplexes logical streams over one net.Conn. Both endpoints
// construct a Mux over their half; streams are identified by a shared
// ID convention (the opener assigns, the acceptor learns via OnStream).
type Mux struct {
	conn    net.Conn
	bw      buffersWriter // conn, when it takes a vectored write whole
	onNew   func(*Stream)
	writeMu sync.Mutex
	// Under writeMu, write's reused frame headers and its vector of
	// headers and payloads.
	hdrs []byte
	vec  net.Buffers

	mu      sync.Mutex
	streams map[uint32]*Stream
	closed  bool
	err     error
	done    chan struct{}
}

// NewMux wraps conn. onNew fires (on the reader goroutine) whenever a
// frame arrives for a stream this side has not opened; it may be nil to
// reject unsolicited streams. Run starts automatically.
func NewMux(conn net.Conn, onNew func(*Stream)) *Mux {
	bw, _ := conn.(buffersWriter)
	m := &Mux{
		conn:    conn,
		bw:      bw,
		onNew:   onNew,
		streams: make(map[uint32]*Stream),
		done:    make(chan struct{}),
	}
	go m.readLoop()
	return m
}

// Open creates (or returns) the stream with the given ID.
func (m *Mux) Open(id uint32) *Stream {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.streams[id]; ok {
		return s
	}
	s := newStream(m, id)
	m.streams[id] = s
	return s
}

// Close tears down the mux and every stream.
func (m *Mux) Close() error {
	m.fail(errors.New("tunnel: mux closed"))
	return nil
}

// Done is closed when the mux has terminated.
func (m *Mux) Done() <-chan struct{} { return m.done }

// Err returns the terminal error.
func (m *Mux) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

func (m *Mux) fail(err error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.err = err
	streams := make([]*Stream, 0, len(m.streams))
	for _, s := range m.streams {
		streams = append(streams, s)
	}
	m.streams = map[uint32]*Stream{}
	close(m.done)
	m.mu.Unlock()
	m.conn.Close()
	for _, s := range streams {
		s.shutdown(err)
	}
}

// readLoop demultiplexes inbound frames.
func (m *Mux) readLoop() {
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(m.conn, hdr[:]); err != nil {
			m.fail(err)
			return
		}
		id := binary.BigEndian.Uint32(hdr[0:4])
		n := binary.BigEndian.Uint32(hdr[4:8])
		if n > maxFrame {
			m.fail(fmt.Errorf("tunnel: frame of %d bytes exceeds limit", n))
			return
		}
		// The payload buffer is pooled and ownership passes to
		// deliver, which queues it on the stream's chunk deque; it
		// returns to the pool once the stream's reader consumes it —
		// no copy and no per-frame garbage on the demux path.
		buf := bufpool.Get(int(n))
		if _, err := io.ReadFull(m.conn, buf); err != nil {
			bufpool.Put(buf)
			m.fail(err)
			return
		}
		m.mu.Lock()
		s, ok := m.streams[id]
		var isNew bool
		if !ok && !m.closed {
			if m.onNew == nil {
				m.mu.Unlock()
				bufpool.Put(buf)
				continue // unsolicited stream, no acceptor: drop
			}
			s = newStream(m, id)
			m.streams[id] = s
			isNew = true
		}
		m.mu.Unlock()
		if s == nil {
			bufpool.Put(buf)
			continue
		}
		if isNew {
			m.onNew(s)
		}
		s.deliver(buf)
	}
}

// frameHeaderLen is a frame's [stream ID | payload length] header.
const frameHeaderLen = 8

// stageMax is the largest payload Stream.Write copies in behind its
// header (a packet, a control line, a BGP message): for that little,
// one small pooled buffer and one plain Write cost less than a
// vectored write.
const stageMax = 4096 - frameHeaderLen

// buffersWriter is a transport that takes a vectored write as one call
// (bufconn, faultconn); any other conn gets net.Buffers.WriteTo, which
// is writev on a *net.TCPConn.
type buffersWriter interface {
	WriteBuffers(net.Buffers) (int64, error)
}

// writeStaged sends p, at most stageMax bytes, as one frame copied in
// behind its header, in a single Write.
func (m *Mux) writeStaged(id uint32, p []byte) error {
	buf := appendHeader(bufpool.Get(frameHeaderLen + len(p))[:0], id, len(p))
	buf = append(buf, p...)
	m.writeMu.Lock()
	_, err := m.conn.Write(buf)
	m.writeMu.Unlock()
	bufpool.Put(buf)
	return err
}

// write sends bufs for stream id as consecutive frames of at most
// maxFrame payload bytes each, cut only between buffers: a buffer is
// never split, so one over maxFrame is refused and nothing is sent.
// Everything goes to the transport in one call, so a transport that
// drops whole calls (a faultconn partition) can never split a frame and
// desynchronize the peer's framing. The headers sit in one small buffer
// the mux reuses and the payloads go out as they are, not copied: a fan-out
// frame's shared bytes reach the transport untouched. Empty buffers
// carry nothing and are skipped. The conn completes the write before it
// returns, so the buffers are the caller's again then.
func (m *Mux) write(id uint32, bufs [][]byte) (int64, error) {
	var total int64
	frames, run := 0, 0
	for _, b := range bufs {
		if len(b) > maxFrame {
			return 0, fmt.Errorf("tunnel: write of %d bytes exceeds frame limit", len(b))
		}
		if len(b) == 0 {
			continue
		}
		if frames == 0 || run+len(b) > maxFrame {
			frames, run = frames+1, 0
		}
		run += len(b)
		total += int64(len(b))
	}
	if frames == 0 {
		return 0, nil
	}
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	if cap(m.hdrs) < frameHeaderLen*frames {
		m.hdrs = make([]byte, 0, frameHeaderLen*frames)
	}
	hdrs, vec := m.hdrs[:0], m.vec[:0]
	for i := 0; i < len(bufs); {
		// One frame: the longest run of buffers from i that fits.
		j, n := i, 0
		for ; j < len(bufs) && n+len(bufs[j]) <= maxFrame; j++ {
			n += len(bufs[j])
		}
		if n > 0 {
			h := len(hdrs)
			hdrs = appendHeader(hdrs, id, n)
			vec = append(vec, hdrs[h:])
			for _, b := range bufs[i:j] {
				if len(b) > 0 {
					vec = append(vec, b)
				}
			}
		}
		i = j
	}
	var err error
	if m.bw != nil {
		_, err = m.bw.WriteBuffers(vec)
	} else {
		v := vec // WriteTo consumes its receiver
		_, err = v.WriteTo(m.conn)
	}
	clear(vec) // the payloads are the caller's: do not pin them
	m.vec = vec[:0]
	if err != nil {
		return 0, err
	}
	return total, nil
}

// appendHeader appends a frame header for n payload bytes on stream id.
func appendHeader(b []byte, id uint32, n int) []byte {
	return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(b, id), uint32(n))
}

// Stream is one logical channel; it implements net.Conn so BGP sessions
// run over it unchanged.
//
// Unread bytes live in a deque of pooled frame chunks: deliver appends
// the frame buffer itself (ownership transfers from the mux read loop)
// and Read consumes chunks front to back, returning each exhausted
// chunk to bufpool. A flat append-grown buffer looks simpler but is
// quadratic when the reader lags — a client draining a full-table sync
// builds a multi-megabyte backlog, and every array growth recopies all
// of it. The deque never copies a delivered byte again: one copy in
// (the mux read), one copy out (Read), regardless of backlog depth.
type Stream struct {
	mux *Mux
	id  uint32

	mu     sync.Mutex
	cond   *sync.Cond
	chunks [][]byte // pooled; chunks[head][off:] is the next unread byte
	head   int
	off    int
	avail  int // total unread bytes across chunks
	closed bool
	err    error
}

var _ net.Conn = (*Stream)(nil)

func newStream(m *Mux, id uint32) *Stream {
	s := &Stream{mux: m, id: id}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// ID returns the stream's channel ID.
func (s *Stream) ID() uint32 { return s.id }

// deliver queues frame payload p for Read. Ownership of p (a bufpool
// buffer) transfers to the stream: it is returned to the pool once the
// reader consumes it, or immediately if the stream is closed or the
// frame is empty.
func (s *Stream) deliver(p []byte) {
	if len(p) == 0 {
		bufpool.Put(p)
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		bufpool.Put(p)
		return
	}
	s.chunks = append(s.chunks, p)
	s.avail += len(p)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// shutdown marks the stream closed. Chunks already delivered stay
// readable — a peer's parting messages (a BGP Cease ahead of the
// transport close) must reach the reader before it sees EOF. Chunks
// still queued when the last reader goes away are reclaimed by the GC
// rather than the pool: a missed recycle, never a leak.
func (s *Stream) shutdown(err error) {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.err = err
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Read implements net.Conn. A single call copies from the front chunk
// only, so it may return fewer bytes than are buffered; callers
// already loop (io.ReadFull in the BGP message reader).
func (s *Stream) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.avail == 0 {
		if s.closed {
			if s.err == nil || errors.Is(s.err, io.EOF) {
				return 0, io.EOF
			}
			return 0, s.err
		}
		s.cond.Wait()
	}
	c := s.chunks[s.head]
	n := copy(p, c[s.off:])
	s.off += n
	s.avail -= n
	if s.off == len(c) {
		bufpool.Put(c)
		s.chunks[s.head] = nil
		s.head++
		s.off = 0
		if s.head == len(s.chunks) {
			s.chunks, s.head = s.chunks[:0], 0
		} else if s.head >= 32 && s.head*2 >= len(s.chunks) {
			// Compact the deque's pointer slice (not the bytes) once
			// at least half of it is consumed slots.
			s.chunks = s.chunks[:copy(s.chunks, s.chunks[s.head:])]
			s.head = 0
		}
	}
	return n, nil
}

// Buffered reports how many bytes are queued for Read. Batch-aware
// readers (the BGP session reader) use it to drain already-arrived
// messages in one delivery instead of one handler call per message.
func (s *Stream) Buffered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.avail
}

// Write implements net.Conn: p goes out as one frame. A payload up to
// stageMax (a packet, a control line, a BGP message) is copied in
// behind its header; a larger one is WriteBuffers of one buffer.
func (s *Stream) Write(p []byte) (int, error) {
	if len(p) > stageMax {
		n, err := s.WriteBuffers(net.Buffers{p})
		return int(n), err
	}
	if s.isClosed() {
		return 0, io.ErrClosedPipe
	}
	if err := s.mux.writeStaged(s.id, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteBuffers sends bufs, in order, as one write to the transport: the
// buffers are packed into frames of at most maxFrame bytes, cut only
// between buffers, with no payload copied (Mux.write). A buffer over
// maxFrame is refused whole. bufs is only read. It returns the payload
// bytes sent.
func (s *Stream) WriteBuffers(bufs net.Buffers) (int64, error) {
	if s.isClosed() {
		return 0, io.ErrClosedPipe
	}
	return s.mux.write(s.id, bufs)
}

func (s *Stream) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close implements net.Conn: it detaches this stream from the mux.
func (s *Stream) Close() error {
	s.mux.mu.Lock()
	delete(s.mux.streams, s.id)
	s.mux.mu.Unlock()
	s.shutdown(io.EOF)
	return nil
}

// LocalAddr implements net.Conn.
func (s *Stream) LocalAddr() net.Addr { return streamAddr{s.id, "local"} }

// RemoteAddr implements net.Conn.
func (s *Stream) RemoteAddr() net.Addr { return streamAddr{s.id, "remote"} }

// SetDeadline implements net.Conn (not supported; no-op).
func (s *Stream) SetDeadline(time.Time) error { return nil }

// SetReadDeadline implements net.Conn (not supported; no-op).
func (s *Stream) SetReadDeadline(time.Time) error { return nil }

// SetWriteDeadline implements net.Conn (not supported; no-op).
func (s *Stream) SetWriteDeadline(time.Time) error { return nil }

type streamAddr struct {
	id   uint32
	side string
}

func (a streamAddr) Network() string { return "tunnel" }
func (a streamAddr) String() string  { return fmt.Sprintf("stream-%d-%s", a.id, a.side) }
