package internet

// Full-table trace synthesis: serializing a generated Internet as the
// MRT update stream a transit provider would announce on session
// establishment. The output is a BGP4MP_ET trace the mrt replay engine
// can feed into a live server session (server.ReplayUpstream), which
// makes "ingest the 2014 global table" a reproducible benchmark input
// instead of a 25 MB binary fixture.

import (
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"time"

	"peering/internal/mrt"
	"peering/internal/wire"
)

// TraceConfig shapes WriteTrace. The zero value announces from the
// graph's first tier-1 toward the PEERING mux ASN.
type TraceConfig struct {
	// PeerAS is the upstream whose view the trace captures: every AS
	// path starts at it. Zero picks the graph's first tier-1, whose
	// Gao–Rexford view spans the whole table.
	PeerAS uint32
	// LocalAS is the collector/receiver AS stamped on records (zero =
	// 47065, the PEERING testbed ASN).
	LocalAS uint32
	// PeerIP and LocalIP are the session endpoints stamped on records
	// and used as NEXT_HOP. Both must be the same address family;
	// invalid values default to 10.0.0.1 / 10.0.0.2.
	PeerIP  netip.Addr
	LocalIP netip.Addr
	// Start stamps the first record (zero = 2014-10-27T00:00:00Z, the
	// paper's era); Gap spaces successive records so timed replay has a
	// schedule to pace against (zero = 1ms).
	Start time.Time
	Gap   time.Duration
}

// TraceStats summarizes one written trace.
type TraceStats struct {
	// Records is the number of MRT records (= UPDATE messages) written;
	// Routes the NLRIs inside them; Origins the distinct originating
	// ASes (= distinct attribute sets).
	Records int
	Routes  int
	Origins int
	// Bytes is the encoded trace size.
	Bytes uint64
}

// WriteTrace serializes every prefix originated anywhere in g as one
// continuous announcement stream heard from cfg.PeerAS, packing
// same-origin prefixes into as few UPDATEs as MaxMsgLen allows. AS
// paths follow each origin's first-provider chain up to the transit-
// free core and over to the announcing peer — the structural shape of
// a real full-table dump (path length distributed by topology depth,
// one attribute set per origin) without running full route propagation
// over a 76K-AS graph.
func WriteTrace(w io.Writer, g *Graph, cfg TraceConfig) (TraceStats, error) {
	if cfg.PeerAS == 0 {
		for _, asn := range g.order {
			if g.byASN[asn].Kind == KindTier1 {
				cfg.PeerAS = asn
				break
			}
		}
		if cfg.PeerAS == 0 {
			return TraceStats{}, fmt.Errorf("internet: no tier-1 in graph and no PeerAS configured")
		}
	}
	if cfg.LocalAS == 0 {
		cfg.LocalAS = 47065
	}
	if !cfg.PeerIP.IsValid() || !cfg.LocalIP.IsValid() || cfg.PeerIP.Is4() != cfg.LocalIP.Is4() {
		cfg.PeerIP = netip.AddrFrom4([4]byte{10, 0, 0, 1})
		cfg.LocalIP = netip.AddrFrom4([4]byte{10, 0, 0, 2})
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2014, 10, 27, 0, 0, 0, 0, time.UTC)
	}
	if cfg.Gap <= 0 {
		cfg.Gap = time.Millisecond
	}

	opts := wire.Options{AS4: true}
	mw := mrt.NewWriter(w, nil)
	var st TraceStats
	var buf []byte // one origin's messages
	ts := cfg.Start
	for _, asn := range g.order {
		a := g.byASN[asn]
		if len(a.Prefixes) == 0 {
			continue
		}
		attrs := &wire.Attrs{
			Origin:  wire.OriginIGP,
			ASPath:  []wire.Segment{{Type: wire.SegSequence, ASNs: g.pathFrom(cfg.PeerAS, a)}},
			NextHop: cfg.PeerIP,
		}
		nlris := make([]wire.NLRI, len(a.Prefixes))
		for i, p := range a.Prefixes {
			nlris[i] = wire.NLRI{Prefix: p}
		}
		st.Origins++
		var err error
		if buf, _, err = wire.AppendRun(buf[:0], nil, attrs, nlris, opts); err != nil {
			return st, fmt.Errorf("internet: trace update for AS%d: %w", asn, err)
		}
		// One record per message, cut at each header's length field.
		for msg := buf; len(msg) > 0; {
			n := int(binary.BigEndian.Uint16(msg[wire.MarkerLen:]))
			rec, err := (&mrt.BGP4MP{
				PeerAS:  cfg.PeerAS,
				LocalAS: cfg.LocalAS,
				PeerIP:  cfg.PeerIP,
				LocalIP: cfg.LocalIP,
				Message: msg[:n],
				AS4:     true,
			}).Record(ts, true)
			if err != nil {
				return st, err
			}
			if _, err := mw.WriteRecord(rec); err != nil {
				return st, err
			}
			ts = ts.Add(cfg.Gap)
			st.Records++
			msg = msg[n:]
		}
		st.Routes += len(nlris)
	}
	st.Bytes = mw.Bytes()
	return st, nil
}

// pathFrom builds the AS path for origin's prefixes as heard at peer:
// peer first, then the origin's first-provider chain from the core
// downward, ending at the origin. Provider edges always point at an
// earlier-generated AS, so the climb terminates; the depth guard caps
// pathological graphs rather than looping.
func (g *Graph) pathFrom(peer uint32, origin *AS) []uint32 {
	chain := []uint32{origin.ASN}
	for cur := origin; len(cur.Providers) > 0 && len(chain) < 32; {
		next := g.byASN[cur.Providers[0]]
		if next == nil {
			break
		}
		chain = append(chain, next.ASN)
		cur = next
	}
	path := make([]uint32, 0, len(chain)+1)
	path = append(path, peer)
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i] != path[len(path)-1] {
			path = append(path, chain[i])
		}
	}
	return path
}
