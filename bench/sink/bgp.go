package sink

import (
	"encoding/binary"
	"net/netip"
	"sync/atomic"
	"time"

	"peering/internal/wire"
)

const (
	bgpHeaderLen = 19
	typeOpen     = 1
	typeUpdate   = 2
	typeNotif    = 3
	typeKeep     = 4
)

// Stats are an endpoint's protocol-level tallies, readable from any
// goroutine.
type Stats struct {
	// Established counts BGP streams that completed OPEN/KEEPALIVE.
	Established atomic.Int32
	// Updates counts UPDATE messages walked (End-of-RIB markers
	// included).
	Updates atomic.Uint64
	// Notifications counts NOTIFICATIONs received (a Cease at teardown
	// is normal; one during a run is not).
	Notifications atomic.Uint64
	// Malformed counts messages the walk could not parse and NLRIs for
	// an upstream the endpoint was not told about. Always 0 on a
	// correct run.
	Malformed atomic.Uint64
	// Bytes counts BGP bytes received; Frames the tunnel frames that
	// carried them (a Sink only).
	Bytes, Frames atomic.Uint64
	// FirstUpdate and LastUpdate are the UnixNano times at which the
	// first and the most recent UPDATE-bearing chunk was processed.
	FirstUpdate, LastUpdate atomic.Int64
}

// stream is one BGP byte stream: it reassembles messages that straddle
// reads, answers the handshake, and walks UPDATEs into tables.
type stream struct {
	ep *endpoint
	// upstream is the table every NLRI on this stream belongs to when
	// ADD-PATH is off (Quagga mode: one stream per upstream). With
	// ADD-PATH on, the path ID names the upstream instead.
	upstream uint32
	addPath  bool
	opened   bool
	up       bool
	pending  []byte
	// reply sends bytes back on this stream.
	reply func([]byte)
}

// endpoint is the state shared by the streams of one Sink or Speaker.
type endpoint struct {
	stats  Stats
	tables map[uint32]*Table
	hello  []byte // our OPEN followed by our KEEPALIVE
	keep   []byte
	wake   chan<- struct{}
	// dirty marks state the harness has not been told about; updated
	// marks that the chunk being processed carried an UPDATE.
	dirty, updated bool
}

func newEndpoint(asn uint32, id netip.Addr, addPath bool, tables map[uint32]*Table, wake chan<- struct{}) (*endpoint, error) {
	as2 := uint16(asn)
	if asn > 0xffff {
		as2 = wire.ASTrans
	}
	open, err := wire.Marshal(&wire.Open{
		AS: as2, HoldTime: 90, BGPID: id, Caps: wire.StandardCaps(asn, addPath),
	}, wire.DefaultOptions)
	if err != nil {
		return nil, err
	}
	keep, err := wire.Marshal(&wire.Keepalive{}, wire.DefaultOptions)
	if err != nil {
		return nil, err
	}
	return &endpoint{
		tables: tables,
		hello:  append(open, keep...),
		keep:   keep,
		wake:   wake,
	}, nil
}

// flush publishes every table and pokes the harness, once per chunk of
// input rather than once per route.
func (ep *endpoint) flush() {
	if !ep.dirty {
		return
	}
	ep.dirty = false
	if ep.updated {
		ep.updated = false
		for _, t := range ep.tables {
			t.Publish()
		}
		now := time.Now().UnixNano()
		ep.stats.FirstUpdate.CompareAndSwap(0, now)
		ep.stats.LastUpdate.Store(now)
	}
	if ep.wake != nil {
		select {
		case ep.wake <- struct{}{}:
		default:
		}
	}
}

// feed consumes the next bytes of the stream.
func (s *stream) feed(p []byte) {
	s.ep.stats.Bytes.Add(uint64(len(p)))
	if len(s.pending) > 0 {
		// Finish the one message that straddled the previous chunk;
		// never copy more than that message.
		if len(s.pending) < bgpHeaderLen {
			k := min(bgpHeaderLen-len(s.pending), len(p))
			s.pending = append(s.pending, p[:k]...)
			p = p[k:]
			if len(s.pending) < bgpHeaderLen {
				return
			}
		}
		l := int(binary.BigEndian.Uint16(s.pending[16:18]))
		if l < bgpHeaderLen {
			s.ep.stats.Malformed.Add(1)
			s.pending = s.pending[:0]
			return
		}
		k := min(l-len(s.pending), len(p))
		s.pending = append(s.pending, p[:k]...)
		p = p[k:]
		if len(s.pending) < l {
			return
		}
		s.message(s.pending)
		s.pending = s.pending[:0]
	}
	for len(p) >= bgpHeaderLen {
		l := int(binary.BigEndian.Uint16(p[16:18]))
		if l < bgpHeaderLen {
			s.ep.stats.Malformed.Add(1)
			return
		}
		if len(p) < l {
			break
		}
		s.message(p[:l])
		p = p[l:]
	}
	if len(p) > 0 {
		s.pending = append(s.pending[:0], p...)
	}
}

func (s *stream) message(m []byte) {
	switch m[18] {
	case typeUpdate:
		s.update(m[bgpHeaderLen:])
	case typeOpen:
		// The mux sends its OPEN first and waits for ours, then its
		// KEEPALIVE and waits for ours; answering both at once is a
		// legal ordering and saves a round trip.
		if !s.opened {
			s.opened = true
			s.reply(s.ep.hello)
		}
	case typeKeep:
		if !s.up {
			s.up = true
			s.ep.stats.Established.Add(1)
			s.ep.dirty = true
			return
		}
		s.reply(s.ep.keep) // keeps the mux's hold timer fed on long runs
	case typeNotif:
		s.ep.stats.Notifications.Add(1)
	}
}

// update walks one UPDATE body: withdrawn routes, the attribute block
// (hashed, not parsed) and the NLRI field.
func (s *stream) update(b []byte) {
	ep := s.ep
	ep.stats.Updates.Add(1)
	ep.dirty, ep.updated = true, true
	if len(b) < 4 {
		ep.stats.Malformed.Add(1)
		return
	}
	wdLen := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+wdLen+2 {
		ep.stats.Malformed.Add(1)
		return
	}
	wd := b[2 : 2+wdLen]
	rest := b[2+wdLen:]
	attrLen := int(binary.BigEndian.Uint16(rest))
	if len(rest) < 2+attrLen {
		ep.stats.Malformed.Add(1)
		return
	}
	attrs := rest[2 : 2+attrLen]
	nlri := rest[2+attrLen:]
	if !s.walk(wd, 0, false) {
		ep.stats.Malformed.Add(1)
		return
	}
	if len(nlri) > 0 && !s.walk(nlri, HashAttrs(attrs), true) {
		ep.stats.Malformed.Add(1)
	}
}

// walk applies every NLRI in b to its upstream's table.
func (s *stream) walk(b []byte, attrHash uint64, announce bool) bool {
	t := s.ep.tables[s.upstream]
	last := s.upstream
	for len(b) > 0 {
		if s.addPath {
			if len(b) < 5 {
				return false
			}
			if id := binary.BigEndian.Uint32(b); id != last || t == nil {
				last, t = id, s.ep.tables[id]
			}
			b = b[4:]
		}
		bits := b[0]
		nb := int(bits+7) / 8
		if bits > 32 || len(b) < 1+nb {
			return false
		}
		var a [4]byte
		copy(a[:], b[1:1+nb])
		b = b[1+nb:]
		if t == nil {
			return false // an upstream nobody configured
		}
		if announce {
			t.Announce(binary.BigEndian.Uint32(a[:]), bits, attrHash)
		} else {
			t.Withdraw(binary.BigEndian.Uint32(a[:]), bits)
		}
	}
	return true
}

// Walker is the sink's UPDATE walk without a transport: the staged
// replay and the layer ledger feed it encoded bytes to price the sink's
// share of a run.
type Walker struct {
	ep *endpoint
	st *stream
}

// NewWalker returns a walker whose NLRIs land in a table for each of
// the given upstreams. With addPath set, the path ID names the
// upstream; otherwise everything belongs to upstreams[0].
func NewWalker(addPath bool, upstreams []uint32, rng Range) (*Walker, error) {
	tables := make(map[uint32]*Table, len(upstreams))
	for _, id := range upstreams {
		tables[id] = NewTable(rng)
	}
	ep, err := newEndpoint(64512, netip.AddrFrom4([4]byte{10, 9, 9, 9}), addPath, tables, nil)
	if err != nil {
		return nil, err
	}
	return &Walker{ep: ep, st: &stream{ep: ep, upstream: upstreams[0], addPath: addPath, reply: func([]byte) {}}}, nil
}

// Feed walks the next bytes of the BGP stream.
func (w *Walker) Feed(p []byte) {
	w.st.feed(p)
	w.ep.flush()
}

// Table returns the walker's view of one upstream.
func (w *Walker) Table(upstream uint32) *Table { return w.ep.tables[upstream] }

// Stats returns the walker's tallies.
func (w *Walker) Stats() *Stats { return &w.ep.stats }
