package sink

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"peering/internal/muxproto"
)

const (
	tunnelHeaderLen = 8
	// readBuf is the sink's read window. It only bounds how much one
	// Read can return; frames larger than it are fed in pieces.
	readBuf = 256 << 10
)

// Config describes the mux a Sink attaches to. The harness built the
// mux, so it passes what the provisioning message would say instead of
// having every sink parse JSON.
type Config struct {
	// Mode is the mux's multiplexing mode: one ADD-PATH stream (BIRD)
	// or one stream per upstream (Quagga).
	Mode muxproto.Mode
	// ASN is the testbed AS the sink speaks as.
	ASN uint32
	// RouterID is the sink's BGP identifier.
	RouterID netip.Addr
	// Upstreams lists the mux's upstream IDs; the sink keeps one Table
	// for each.
	Upstreams []uint32
	// Track is the directly indexed prefix range of every table.
	Track Range
	// Wake, when set, receives a non-blocking poke after each chunk of
	// input that changed a table or established a session.
	Wake chan<- struct{}
}

// Sink is the client end of one mux transport.
type Sink struct {
	conn    net.Conn
	cfg     Config
	ep      *endpoint
	streams map[uint32]*stream
	ctrl    []byte // provisioning line, until its newline arrives
	acked   bool
	done    chan struct{}
	err     error
}

// Attach starts a sink on conn, the client half of a transport whose
// other half was handed to Server.AcceptClient.
func Attach(conn net.Conn, cfg Config) (*Sink, error) {
	tables := make(map[uint32]*Table, len(cfg.Upstreams))
	for _, id := range cfg.Upstreams {
		tables[id] = NewTable(cfg.Track)
	}
	ep, err := newEndpoint(cfg.ASN, cfg.RouterID, cfg.Mode == muxproto.ModeBIRD, tables, cfg.Wake)
	if err != nil {
		return nil, err
	}
	s := &Sink{conn: conn, cfg: cfg, ep: ep, streams: make(map[uint32]*stream), done: make(chan struct{})}
	go s.run()
	return s, nil
}

// Table returns the sink's view of one upstream.
func (s *Sink) Table(upstream uint32) *Table { return s.ep.tables[upstream] }

// Stats returns the sink's protocol tallies.
func (s *Sink) Stats() *Stats { return &s.ep.stats }

// Sessions reports how many BGP streams the sink expects to establish.
func (s *Sink) Sessions() int {
	if s.cfg.Mode == muxproto.ModeBIRD {
		return 1
	}
	return len(s.cfg.Upstreams)
}

// Close closes the transport and waits for the reader to exit.
func (s *Sink) Close() error {
	s.conn.Close()
	<-s.done
	if errors.Is(s.err, io.EOF) || errors.Is(s.err, io.ErrClosedPipe) {
		return nil
	}
	return s.err
}

// run demultiplexes tunnel frames: 4-byte stream ID, 4-byte length,
// payload. Payload bytes are handed to their stream as they arrive; a
// frame is never buffered whole.
func (s *Sink) run() {
	defer close(s.done)
	buf := make([]byte, readBuf)
	var (
		start, end int
		cur        *stream // stream of the frame being consumed
		curID      uint32
		remain     int // payload bytes of that frame still to come
	)
	for {
		for {
			avail := end - start
			if remain > 0 {
				if avail == 0 {
					break
				}
				k := min(remain, avail)
				s.payload(cur, curID, buf[start:start+k])
				start += k
				remain -= k
				continue
			}
			if avail < tunnelHeaderLen {
				break
			}
			curID = binary.BigEndian.Uint32(buf[start:])
			remain = int(binary.BigEndian.Uint32(buf[start+4:]))
			start += tunnelHeaderLen
			if cur = s.stream(curID); cur != nil {
				s.ep.stats.Frames.Add(1)
			}
		}
		s.ep.flush()
		if start == end {
			start, end = 0, 0
		} else if end == len(buf) {
			end = copy(buf, buf[start:end])
			start = 0
		}
		n, err := s.conn.Read(buf[end:])
		if err != nil {
			s.err = err
			return
		}
		end += n
	}
}

// stream returns the BGP stream for a tunnel stream ID, or nil for the
// control and packet channels.
func (s *Sink) stream(id uint32) *stream {
	if id < muxproto.StreamBGPBase {
		return nil
	}
	st := s.streams[id]
	if st == nil {
		st = &stream{
			ep:       s.ep,
			upstream: id - muxproto.StreamBGPBase,
			addPath:  s.cfg.Mode == muxproto.ModeBIRD,
			reply:    func(b []byte) { s.write(id, b) },
		}
		s.streams[id] = st
	}
	return st
}

func (s *Sink) payload(st *stream, id uint32, p []byte) {
	switch {
	case st != nil:
		st.feed(p)
	case id == muxproto.StreamControl && !s.acked:
		// The provisioning message is one JSON line; the mux starts the
		// BGP streams once it reads any 3-byte acknowledgement.
		s.ctrl = append(s.ctrl, p...)
		if bytes.IndexByte(s.ctrl, '\n') >= 0 {
			s.acked = true
			s.ctrl = nil
			s.write(muxproto.StreamControl, []byte("ok\n"))
		}
	}
	// Data-plane packets toward the client (stream 0) are discarded.
}

// write sends one tunnel frame. Only the reader goroutine writes, and
// only handshake-sized messages, so it cannot fill the 1 MiB pipe.
func (s *Sink) write(id uint32, p []byte) {
	b := make([]byte, tunnelHeaderLen+len(p))
	binary.BigEndian.PutUint32(b, id)
	binary.BigEndian.PutUint32(b[4:], uint32(len(p)))
	copy(b[tunnelHeaderLen:], p)
	s.conn.Write(b) // a failed write shows as the next Read failing
}

// Speaker is a bare BGP peer over a plain connection: the harness's
// upstream. It completes the handshake, lets the caller write
// pre-encoded UPDATE bytes straight into the transport (so generating
// load costs a memcpy, not an encode), and walks whatever the mux sends
// back into a Table.
type Speaker struct {
	conn net.Conn
	// wmu keeps a keepalive reply from landing inside a caller's Write
	// that is parked on a full pipe.
	wmu  sync.Mutex
	ep   *endpoint
	st   *stream
	done chan struct{}
	err  error
}

// Speak starts a speaker on conn announcing itself as AS asn. Routes
// the mux sends it (client announcements) land in Table(), tracked over
// rng.
func Speak(conn net.Conn, asn uint32, id netip.Addr, rng Range, wake chan<- struct{}) (*Speaker, error) {
	ep, err := newEndpoint(asn, id, false, map[uint32]*Table{0: NewTable(rng)}, wake)
	if err != nil {
		return nil, err
	}
	sp := &Speaker{conn: conn, ep: ep, done: make(chan struct{})}
	sp.st = &stream{ep: ep, reply: func(b []byte) { sp.Write(b) }}
	go sp.run()
	return sp, nil
}

func (sp *Speaker) run() {
	defer close(sp.done)
	buf := make([]byte, 64<<10)
	for {
		n, err := sp.conn.Read(buf)
		if err != nil {
			sp.err = err
			return
		}
		sp.st.feed(buf[:n])
		sp.ep.flush()
	}
}

// Table returns what the mux has announced to this peer.
func (sp *Speaker) Table() *Table { return sp.ep.tables[0] }

// Stats returns the speaker's protocol tallies.
func (sp *Speaker) Stats() *Stats { return &sp.ep.stats }

// WaitEstablished blocks until the handshake completes.
func (sp *Speaker) WaitEstablished(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for sp.ep.stats.Established.Load() == 0 {
		select {
		case <-sp.done:
			return fmt.Errorf("sink: speaker closed during handshake: %v", sp.err)
		default:
		}
		if time.Now().After(deadline) {
			return errors.New("sink: speaker handshake timed out")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// Write sends pre-encoded BGP messages. It blocks while the mux's
// reader is behind (the pipe holds 1 MiB), which is what makes the load
// closed-loop.
func (sp *Speaker) Write(b []byte) (int, error) {
	sp.wmu.Lock()
	defer sp.wmu.Unlock()
	return sp.conn.Write(b)
}

// Close closes the transport and waits for the reader to exit.
func (sp *Speaker) Close() error {
	sp.conn.Close()
	<-sp.done
	return nil
}
