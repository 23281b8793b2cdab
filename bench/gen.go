package main

// Input generators. Everything a workload feeds the mux is derived from
// the seed here, together with the model — a sink.Table holding what
// every destination must end up with.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/netip"

	"peering/bench/sink"
	"peering/internal/internet"
	"peering/internal/mrt"
	"peering/internal/policy/compiled"
	"peering/internal/wire"
)

// as4 is the codec state of every session in the benchmark (4-octet AS
// numbers, no ADD-PATH on the upstream side).
var as4 = wire.Options{AS4: true}

// route is one prefix of a generated table.
type route struct {
	prefix   netip.Prefix
	attrHash uint64
	origin   uint32
	// rejected marks routes the generated rule set denies.
	rejected bool
}

// table is one upstream's view of a generated Internet.
type table struct {
	peerAS uint32
	// trace is the table as an MRT update trace (Server.ReplayUpstream's
	// input); raw is the same UPDATEs as back-to-back BGP messages (a
	// sink.Speaker's input); msgs are the individual messages in raw.
	trace []byte
	raw   []byte
	msgs  [][]byte
	upds  []*wire.Update
	// routes lists every NLRI in announcement order.
	routes []route
}

// tableSpec scales internet.FullTableSpec's proportions to n prefixes.
func tableSpec(seed int64, n int) internet.Spec {
	spec := internet.FullTableSpec()
	if n < spec.Prefixes {
		ases := max(200, n*76/1050)
		spec = internet.Spec{
			ASes: ases, Tier1s: 8, Transits: max(10, ases/30),
			CDNs: 8, Contents: max(10, ases/190), Prefixes: n,
		}
	}
	spec.Seed = seed
	return spec
}

// genTables generates one Internet of n prefixes and serializes it as
// heard from each of its first `peers` tier-1s.
func genTables(seed int64, n, peers int) ([]*table, error) {
	g := internet.Generate(tableSpec(seed, n))
	var tier1 []uint32
	for _, asn := range g.ASNs() {
		if g.AS(asn).Kind == internet.KindTier1 {
			tier1 = append(tier1, asn)
		}
	}
	if len(tier1) < peers {
		return nil, fmt.Errorf("generated graph has %d tier-1s, need %d", len(tier1), peers)
	}
	tabs := make([]*table, peers)
	for i := range tabs {
		var buf bytes.Buffer
		_, err := internet.WriteTrace(&buf, g, internet.TraceConfig{
			PeerAS:  tier1[i],
			PeerIP:  netip.AddrFrom4([4]byte{10, 0, byte(i + 1), 1}),
			LocalIP: netip.AddrFrom4([4]byte{10, 0, byte(i + 1), 2}),
		})
		if err != nil {
			return nil, err
		}
		t := &table{peerAS: tier1[i], trace: buf.Bytes()}
		if err := t.index(); err != nil {
			return nil, err
		}
		tabs[i] = t
	}
	return tabs, nil
}

// index decodes the trace with the repo's own reader and codec — not
// the sink's hand-written walk — so a sink that miscounts disagrees
// with the model instead of agreeing with itself.
func (t *table) index() error {
	r := mrt.NewReader(bytes.NewReader(t.trace))
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		m, err := mrt.ParseBGP4MP(rec)
		if err != nil {
			return err
		}
		upd, err := m.Update()
		if err != nil {
			return err
		}
		if upd == nil || upd.Attrs == nil {
			continue
		}
		ab, err := wire.MarshalAttrs(upd.Attrs, as4)
		if err != nil {
			return err
		}
		ah := sink.HashAttrs(ab)
		for _, n := range upd.Reach {
			t.routes = append(t.routes, route{prefix: n.Prefix, attrHash: ah, origin: upd.Attrs.OriginAS()})
		}
		start := len(t.raw)
		t.raw = append(t.raw, m.Message...)
		t.msgs = append(t.msgs, t.raw[start:len(t.raw):len(t.raw)])
		t.upds = append(t.upds, upd)
	}
}

// model returns the table every destination must hold once the whole
// trace has been relayed: every route the rule set does not reject.
func (t *table) model(track sink.Range) *sink.Table {
	m := sink.NewTable(track)
	for _, r := range t.routes {
		if !r.rejected {
			m.AnnouncePrefix(r.prefix, r.attrHash)
		}
	}
	return m
}

// accepted counts the routes the rule set lets through.
func (t *table) accepted() int {
	n := 0
	for _, r := range t.routes {
		if !r.rejected {
			n++
		}
	}
	return n
}

// Protected ASes of the generated rule set. They sit outside the
// generated Internet's AS numbers, so no table route trips them: the
// ingest path pays for the AS-path rules on every route, and the only
// rejections are the ones injected on purpose.
const (
	protectedAS = 4200000174
	noTransitAS = 4200006453
)

// pathRules is the AS-path half of every generated rule set: Peerlock
// and no-transit rules for the protected ASes.
func pathRules() *compiled.RuleSet {
	return &compiled.RuleSet{
		Peerlock: []compiled.PeerlockRule{
			{Protected: protectedAS, Allowed: []uint32{3356, 2914, 1299}},
			{Protected: protectedAS + 1, Allowed: []uint32{174, 2914, 1299, 3257}},
		},
		NoTransit: []uint32{noTransitAS, noTransitAS + 1},
	}
}

// genPolicy builds a rule set shaped like compiled/bench_test.go's —
// nPrefix prefix-ownership rules, nROA origin authorizations, Peerlock
// and no-transit rules — laid over the table's own prefixes so that
// every lookup walks a populated trie. One prefix rule in 16 is a deny
// and one ROA in 32 names the wrong origin; those routes are marked
// rejected in t, which is the whole of what the filter may drop.
func genPolicy(t *table, nPrefix, nROA int) *compiled.RuleSet {
	rs := pathRules()
	if want := nPrefix + nROA; want > len(t.routes)/2 {
		nPrefix, nROA = nPrefix*len(t.routes)/(2*want), nROA*len(t.routes)/(2*want)
	}
	total := nPrefix + nROA
	if total == 0 {
		return rs
	}
	stride := len(t.routes) / total
	for k := 0; k < total; k++ {
		r := &t.routes[k*stride]
		// Interleave the two families 2:1 (or whatever the counts give)
		// across the address space.
		if k*nROA/total != (k+1)*nROA/total {
			origin := r.origin
			if len(rs.Origins)%32 == 31 {
				origin++
				r.rejected = true
			}
			rs.Origins = append(rs.Origins, compiled.OriginRule{Prefix: r.prefix, Origin: origin})
			continue
		}
		permit := len(rs.Prefixes)%16 != 15
		r.rejected = !permit
		rs.Prefixes = append(rs.Prefixes, compiled.PrefixRule{Prefix: r.prefix, Le: 32, Permit: permit})
	}
	return rs
}

// attrSets builds n distinct attribute sets as announced by peerAS:
// AS paths of 2–6 hops, a MED on some, one or two communities on most.
func attrSets(rng *rand.Rand, n int, peerAS uint32, nextHop netip.Addr) ([]*wire.Attrs, []uint64, error) {
	sets := make([]*wire.Attrs, n)
	hashes := make([]uint64, n)
	for i := range sets {
		path := []uint32{peerAS}
		for h := 1 + rng.Intn(5); h > 0; h-- {
			path = append(path, 1000+uint32(rng.Intn(60000)))
		}
		// The last hop is unique per set, so no two sets are equal.
		path = append(path, 100000+uint32(i))
		a := &wire.Attrs{
			Origin:  wire.OriginIGP,
			ASPath:  []wire.Segment{{Type: wire.SegSequence, ASNs: path}},
			NextHop: nextHop,
		}
		if rng.Intn(4) == 0 {
			a.HasMED, a.MED = true, uint32(rng.Intn(1000))
		}
		for c := rng.Intn(3); c > 0; c-- {
			a.AddCommunity(wire.MakeCommunity(uint16(peerAS), uint16(rng.Intn(1000))))
		}
		b, err := wire.MarshalAttrs(a, as4)
		if err != nil {
			return nil, nil, err
		}
		sets[i], hashes[i] = a, sink.HashAttrs(b)
	}
	return sets, hashes, nil
}

// churn generates single-NLRI UPDATEs over a tracked prefix range for
// one upstream, keeping the model in step. Every operation changes the
// model (an announcement always carries attributes the slot does not
// hold; a withdrawal only targets a present slot), so "the destination
// equals the model" is reached exactly when the last operation lands.
type churn struct {
	rng    sink.Range
	sets   []*wire.Attrs
	hashes []uint64
	model  *sink.Table
	// next and stride walk the pool in a fixed full-cycle order.
	next, stride int
	k            int
}

func newChurn(seed int64, rng sink.Range, peerAS uint32, nextHop netip.Addr, model *sink.Table) (*churn, error) {
	r := rand.New(rand.NewSource(seed))
	sets, hashes, err := attrSets(r, 512, peerAS, nextHop)
	if err != nil {
		return nil, err
	}
	// An odd stride is coprime with the power-of-two pool sizes used.
	return &churn{rng: rng, sets: sets, hashes: hashes, model: model,
		next: r.Intn(rng.N), stride: 2*r.Intn(rng.N/2) + 1}, nil
}

// op produces the next operation as a wire.Update and applies it to the
// model.
func (c *churn) op() *wire.Update {
	i := c.next
	c.next = (c.next + c.stride) % c.rng.N
	c.k++
	p := c.rng.Prefix(i)
	cur, present := c.model.Slot(i)
	if present && c.k%8 == 0 {
		c.model.WithdrawPrefix(p)
		return &wire.Update{Withdrawn: []wire.NLRI{{Prefix: p}}}
	}
	a := c.k % len(c.sets)
	if cur == c.hashes[a]|1 {
		a = (a + 1) % len(c.sets)
	}
	c.model.AnnouncePrefix(p, c.hashes[a])
	return &wire.Update{Attrs: c.sets[a], Reach: []wire.NLRI{{Prefix: p}}}
}

// encode appends n operations to b as wire-format messages.
func (c *churn) encode(b []byte, n int) ([]byte, error) {
	for ; n > 0; n-- {
		var err error
		if b, err = wire.AppendMessage(b, c.op(), as4); err != nil {
			return nil, err
		}
	}
	return b, nil
}
