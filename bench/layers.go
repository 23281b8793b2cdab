package main

// The per-layer ledger of the traced pass: each layer's public
// functions timed from outside, on the workload's own inputs, plus the
// counters the mux keeps about itself. Nothing here feeds an end-to-end
// metric; those always come from the untraced run.

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"peering/bench/sink"
	"peering/internal/bgp"
	"peering/internal/bufconn"
	"peering/internal/bufpool"
	"peering/internal/client"
	"peering/internal/dampen"
	"peering/internal/dataplane"
	"peering/internal/mrt"
	"peering/internal/muxproto"
	"peering/internal/policy/compiled"
	"peering/internal/rib"
	"peering/internal/server"
	"peering/internal/trie"
	"peering/internal/tunnel"
	"peering/internal/wire"
)

// perLayer lists the per-layer metrics, named <layer>.<metric> after
// the repository's packages. A traced run reports every one; a metric
// that has no meaning on a workload (a FIB lookup on a route workload)
// reads 0 there. README.md says which end-to-end metric each should
// move, on which workload.
var perLayer = []metricSpec{
	{"wire.decode_ns_per_update", "ns", "lower"},
	{"wire.decode_allocs_per_update", "count", "lower"},
	{"wire.decode_bytes_per_update", "B", "lower"},
	{"wire.intern_hit_ns", "ns", "lower"},
	{"wire.intern_miss_ns", "ns", "lower"},
	{"wire.intern_hit_ratio", "ratio", "higher"},
	{"wire.pack_ns_per_nlri", "ns", "lower"},
	{"wire.encode_ns_per_update", "ns", "lower"},
	{"wire.encode_allocs_per_update", "count", "lower"},
	{"bgp.session_ns_per_update", "ns", "lower"},
	{"bgp.session_allocs_per_update", "count", "lower"},
	{"bgp.ingest_batch_mean", "count", "higher"},
	{"policy.verdict_ns", "ns", "lower"},
	{"policy.verdict_allocs", "count", "lower"},
	{"policy.verdictpath_ns", "ns", "lower"},
	{"policy.compile_s", "s", "lower"},
	{"policy.reject_share", "ratio", "lower"},
	{"rib.adj_update_ns_per_route", "ns", "lower"},
	{"rib.adj_update_allocs_per_route", "count", "lower"},
	{"rib.walk_ns_per_route", "ns", "lower"},
	{"rib.bytes_per_route", "B", "lower"},
	{"rib.locrib_update_ns", "ns", "lower"},
	{"trie.insert_ns", "ns", "lower"},
	{"trie.lookup_ns", "ns", "lower"},
	{"trie.supernets_ns", "ns", "lower"},
	{"server.updates_to_clients", "count", "lower"},
	{"server.nlris_per_update", "count", "higher"},
	{"server.frames_shared_ratio", "ratio", "higher"},
	{"server.frames_total", "count", "higher"},
	{"server.coalesced_total", "count", "higher"},
	{"server.backpressure_total", "count", "lower"},
	{"server.shed_total", "count", "lower"},
	{"server.resyncs_total", "count", "lower"},
	{"server.queue_high_water", "count", "lower"},
	{"server.ingest_s", "s", "lower"},
	{"server.self_cpu_share", "ratio", "lower"},
	{"server.rejoin_slowdown", "ratio", "lower"},
	{"server.probe_p90_ms", "ms", "lower"},
	{"server.probe_p99_ms", "ms", "lower"},
	{"server.openloop_p50_ms", "ms", "lower"},
	{"server.openloop_p99_ms", "ms", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.cpu_share", "ratio", "lower"},
	{"loadgen.sink_ns_per_nlri", "ns", "lower"},
	{"bufpool.getput_ns", "ns", "lower"},
	{"bufpool.frame_retain_release_ns", "ns", "lower"},
	{"tunnel.write_ns_per_frame", "ns", "lower"},
	{"tunnel.read_ns_per_frame", "ns", "lower"},
	{"tunnel.bytes_per_nlri", "B", "lower"},
	{"tunnel.packet_encode_ns", "ns", "lower"},
	{"tunnel.packet_decode_ns", "ns", "lower"},
	{"bufconn.pipe_ns_per_kb", "ns", "lower"},
	{"dampen.recordflap_ns", "ns", "lower"},
	{"dampen.tracked_keys", "count", "lower"},
	{"dataplane.forward_ns", "ns", "lower"},
	{"dataplane.forward_allocs", "count", "lower"},
	{"dataplane.forward_bytes", "B", "lower"},
	{"dataplane.lookup_ns", "ns", "lower"},
	{"mrt.read_ns_per_record", "ns", "lower"},
	{"client.fullclient_ratio", "ratio", "higher"},
	{"client.announce_ns", "ns", "lower"},
	{"runtime.allocs_per_delivery", "count", "lower"},
	{"runtime.alloc_bytes_per_delivery", "B", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"runtime.peak_heap_bytes", "B", "lower"},
	{"runtime.goroutines_leaked", "count", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
}

// materials are a workload's own inputs, handed to the ledger so each
// layer is priced on the data the run used.
type materials struct {
	// msgs are upstream-side UPDATE messages in wire format; upds the
	// same messages decoded.
	msgs [][]byte
	upds []*wire.Update
	// trace is the MRT form of msgs, when the workload replays one.
	trace []byte
	// rules is the safety rule set the mux ran with (nil = none); peer
	// is who verdicts were asked about.
	rules *compiled.RuleSet
	peer  compiled.Peer
	// clientOpts and pathID describe the client-facing encoding: BIRD
	// mode negotiates ADD-PATH and stamps the upstream ID on every NLRI.
	clientOpts wire.Options
	pathID     wire.PathID
	// prefixes feed the trie and FIB benches: the FIB's own on the
	// data-plane workload, the table's otherwise.
	prefixes []netip.Prefix
	// frameBytes is the mean tunnel frame payload the live pass
	// produced.
	frameBytes int
}

// cost is what one operation of a layer costs.
type cost struct{ ns, allocs, bytes float64 }

// sinks keep the compiler from discarding measured calls.
var (
	sinkMsg   wire.Message
	sinkAttrs *wire.Attrs
	sinkUpds  []*wire.Update
	sinkBytes []byte
	sinkV     compiled.Verdict
	sinkBool  bool
	sinkFIB   *dataplane.FIBEntry
	sinkPkt   *dataplane.Packet
)

// measure times fn over rounds of n operations for at least 30 ms and
// returns the median round's time per operation with the mean
// allocation figures. fn receives a running index.
func measure(n int, fn func(i int)) cost {
	if n <= 0 {
		return cost{}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var per []float64
	total := 0
	begun := time.Now()
	for r := 0; r < 3 || (r < 200 && time.Since(begun) < 30*time.Millisecond); r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(total + i)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
		total += n
	}
	runtime.ReadMemStats(&ms1)
	return cost{
		ns:     median(per),
		allocs: float64(ms1.Mallocs-ms0.Mallocs) / float64(total),
		bytes:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(total),
	}
}

// rounds times whole rounds (set-up of each round untimed via prepare)
// and returns the median round's time per operation.
func rounds(n, ops int, prepare func(), round func()) float64 {
	var per []float64
	for r := 0; r < n; r++ {
		if prepare != nil {
			prepare()
		}
		start := time.Now()
		round()
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(ops))
	}
	return median(per)
}

// attrSetsOf returns the distinct-by-message attribute sets of upds.
func attrSetsOf(upds []*wire.Update) []*wire.Attrs {
	var sets []*wire.Attrs
	for _, u := range upds {
		if u.Attrs != nil {
			sets = append(sets, u.Attrs)
		}
	}
	return sets
}

// clientGroups regroups upds as the fan-out would hand them to the
// packer: one group per message, NLRIs stamped with the path ID.
func (m *materials) clientGroups(limit int) ([]wire.AttrGroup, int) {
	var groups []wire.AttrGroup
	nlris := 0
	for _, u := range m.upds {
		if u.Attrs == nil || len(u.Reach) == 0 {
			continue
		}
		ns := make([]wire.NLRI, len(u.Reach))
		for i, n := range u.Reach {
			ns[i] = wire.NLRI{Prefix: n.Prefix, ID: m.pathID}
		}
		groups = append(groups, wire.AttrGroup{Attrs: u.Attrs, NLRIs: ns})
		nlris += len(ns)
		if nlris >= limit {
			break
		}
	}
	return groups, nlris
}

// ledger runs every layer bench the materials allow and stores the
// results in out.
func ledger(m *materials, out map[string]float64) {
	ledgerWire(m, out)
	ledgerSession(m, out)
	ledgerPolicy(m, out)
	ledgerRIB(m, out)
	ledgerTrie(m, out)
	ledgerPools(m, out)
	ledgerTunnel(m, out)
	ledgerDampen(m, out)
	ledgerDataplane(m, out)
	ledgerMRT(m, out)
	ledgerSink(m, out)
}

func ledgerWire(m *materials, out map[string]float64) {
	if len(m.msgs) == 0 {
		return
	}
	n := min(len(m.msgs), 4096)
	c := measure(n, func(i int) { sinkMsg, _ = wire.Decode(m.msgs[i%len(m.msgs)], as4) })
	out["wire.decode_ns_per_update"] = c.ns
	out["wire.decode_allocs_per_update"] = c.allocs
	out["wire.decode_bytes_per_update"] = c.bytes

	sets := attrSetsOf(m.upds)
	if len(sets) > 0 {
		// A hit is what the mux pays for a re-announced route: a freshly
		// decoded (private) attribute set equal to a stored one.
		tbl := wire.NewInternTable()
		for _, a := range sets {
			tbl.Intern(a.Clone())
		}
		n = min(len(sets), 4096)
		clones := make([]*wire.Attrs, n)
		for i := range clones {
			clones[i] = sets[i].Clone()
		}
		out["wire.intern_hit_ns"] = measure(n, func(i int) { sinkAttrs = tbl.Intern(clones[i%n]) }).ns
		// A miss is the first sight of a set: every round interns fresh
		// copies into an empty table.
		var fresh []*wire.Attrs
		var empty *wire.InternTable
		out["wire.intern_miss_ns"] = rounds(5, n, func() {
			empty = wire.NewInternTable()
			fresh = fresh[:0]
			for i := 0; i < n; i++ {
				fresh = append(fresh, sets[i].Clone())
			}
		}, func() {
			for _, a := range fresh {
				sinkAttrs = empty.Intern(a)
			}
		})
		// The ratio the workload's own stream produces, in order.
		stream := wire.NewInternTable()
		for _, a := range sets {
			stream.Intern(a.Clone())
		}
		if hits, misses := stream.Stats(); hits+misses > 0 {
			out["wire.intern_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
	}

	groups, nlris := m.clientGroups(200000)
	if nlris == 0 {
		return
	}
	var packed []*wire.Update
	out["wire.pack_ns_per_nlri"] = rounds(5, nlris, func() { packed = packed[:0] }, func() {
		for i := range groups {
			packed = append(packed, wire.PackGrouped(nil, groups[i:i+1], m.clientOpts)...)
		}
	})
	buf := make([]byte, 0, wire.MaxMsgLen)
	c = measure(len(packed), func(i int) { sinkBytes, _ = wire.AppendMessage(buf[:0], packed[i%len(packed)], m.clientOpts) })
	out["wire.encode_ns_per_update"] = c.ns
	out["wire.encode_allocs_per_update"] = c.allocs
}

// ledgerSession prices bgp.Session: Send on one end to UpdateReceived
// on the other across a bufconn pipe, pipelined, on the workload's own
// UPDATEs.
func ledgerSession(m *materials, out map[string]float64) {
	if len(m.upds) == 0 {
		return
	}
	a, b := bufconn.Pipe()
	var got atomic.Int64
	sa := bgp.New(a, bgp.Config{LocalAS: 64601, LocalID: netip.AddrFrom4([4]byte{10, 8, 0, 1})}, nil)
	sb := bgp.New(b, bgp.Config{LocalAS: 64602, LocalID: netip.AddrFrom4([4]byte{10, 8, 0, 2})},
		bgp.HandlerFuncs{OnUpdate: func(*bgp.Session, *wire.Update) { got.Add(1) }})
	go sa.Run()
	go sb.Run()
	defer sb.Close()
	defer sa.Close()
	if waitUntil(200*time.Microsecond, func() bool { return sa.Established() && sb.Established() }) != nil {
		return
	}
	n := min(max(len(m.upds), 2000), 20000)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < n; i++ {
		if sa.Send(m.upds[i%len(m.upds)]) != nil {
			return
		}
	}
	if waitUntil(200*time.Microsecond, func() bool { return got.Load() >= int64(n) }) != nil {
		return
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	out["bgp.session_ns_per_update"] = float64(elapsed.Nanoseconds()) / float64(n)
	out["bgp.session_allocs_per_update"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
}

func ledgerPolicy(m *materials, out map[string]float64) {
	if m.rules == nil {
		return
	}
	start := time.Now()
	f := compiled.Compile(m.rules)
	out["policy.compile_s"] = time.Since(start).Seconds()
	// Verdicts run on interned attribute sets (the memo is keyed by
	// pointer), one per NLRI.
	tbl := wire.NewInternTable()
	var prefixes []netip.Prefix
	var attrs []*wire.Attrs
	for _, u := range m.upds {
		if u.Attrs == nil {
			continue
		}
		a := tbl.Intern(u.Attrs.Clone())
		for _, n := range u.Reach {
			prefixes = append(prefixes, n.Prefix)
			attrs = append(attrs, a)
		}
		if len(prefixes) >= 65536 {
			break
		}
	}
	if len(prefixes) == 0 {
		return
	}
	for i := range prefixes { // warm the path memo, as steady state has it
		f.Verdict(prefixes[i], attrs[i], m.peer)
	}
	n := len(prefixes)
	c := measure(n, func(i int) { sinkV = f.Verdict(prefixes[i%n], attrs[i%n], m.peer) })
	out["policy.verdict_ns"] = c.ns
	out["policy.verdict_allocs"] = c.allocs
	out["policy.verdictpath_ns"] = measure(n, func(i int) { sinkV = f.VerdictPath(attrs[i%n], m.peer) }).ns
}

// shardBatch is one shard's share of one UPDATE, as the ingest pool
// folds it.
type shardBatch struct {
	shard int
	attrs *wire.Attrs
	reach []wire.NLRI
	wd    []wire.NLRI
}

// shardBatches buckets upds by RIB shard.
func shardBatches(upds []*wire.Update, shards int, tbl *wire.InternTable) (batches []shardBatch, routes int) {
	mask := uint32(shards - 1)
	for _, u := range upds {
		per := make(map[int]*shardBatch)
		get := func(p netip.Prefix) *shardBatch {
			si := int(rib.PrefixShard(p) & mask)
			b := per[si]
			if b == nil {
				b = &shardBatch{shard: si}
				if u.Attrs != nil {
					b.attrs = tbl.Intern(u.Attrs)
				}
				per[si] = b
			}
			return b
		}
		for _, n := range u.Withdrawn {
			b := get(n.Prefix)
			b.wd = append(b.wd, n)
		}
		if u.Attrs != nil {
			for _, n := range u.Reach {
				b := get(n.Prefix)
				b.reach = append(b.reach, n)
			}
		}
		for si := 0; si < shards; si++ {
			if b := per[si]; b != nil {
				batches = append(batches, *b)
				routes += len(b.reach) + len(b.wd)
			}
		}
	}
	return batches, routes
}

// applyBatch installs one shard batch the way the ingest workers do.
func applyBatch(adj *rib.ShardedAdj, b *shardBatch, learned time.Time) {
	adj.Update(b.shard, func(t *rib.AdjRIB) {
		for _, n := range b.wd {
			t.Remove(n.Prefix, 0)
		}
		for _, n := range b.reach {
			t.Set(&rib.Route{
				Prefix: n.Prefix, Attrs: b.attrs,
				Src:    rib.PeerKey{Addr: netip.AddrFrom4([4]byte{10, 0, 1, 1})},
				PeerAS: 1, EBGP: true, Learned: learned,
			})
		}
	})
}

func ledgerRIB(m *materials, out map[string]float64) {
	if len(m.upds) == 0 {
		return
	}
	tbl := wire.NewInternTable()
	shards := rib.ShardCount(0)
	batches, routes := shardBatches(m.upds, shards, tbl)
	if routes == 0 {
		return
	}
	base := liveHeap()
	adj := rib.NewShardedAdj(shards)
	adj.SetInterner(tbl)
	now := time.Now()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := range batches {
		applyBatch(adj, &batches[i], now)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	out["rib.adj_update_ns_per_route"] = float64(elapsed.Nanoseconds()) / float64(routes)
	out["rib.adj_update_allocs_per_route"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(routes)
	if held := adj.Len(); held > 0 {
		out["rib.bytes_per_route"] = float64(heapSince(base)) / float64(held)
		walked := 0
		out["rib.walk_ns_per_route"] = rounds(3, held, nil, func() {
			for i := 0; i < adj.Shards(); i++ {
				adj.ReadShard(i, func(_ uint64, t *rib.AdjRIB) {
					t.WalkGrouped(func(_ *wire.Attrs, ns []wire.NLRI) { walked += len(ns) })
				})
			}
		})
		sinkBool = walked > 0
	}
	runtime.KeepAlive(adj)

	// LocRIB is on no workload's blocking path; the row exists so the
	// ledger has it.
	loc := rib.NewLocRIB()
	var rs []*rib.Route
	for i := range batches {
		for _, n := range batches[i].reach {
			rs = append(rs, &rib.Route{Prefix: n.Prefix, Attrs: batches[i].attrs,
				Src: rib.PeerKey{Addr: netip.AddrFrom4([4]byte{10, 0, 1, 1})}, PeerAS: 1, EBGP: true})
		}
		if len(rs) >= 65536 {
			break
		}
	}
	if len(rs) > 0 {
		out["rib.locrib_update_ns"] = rounds(1, len(rs), nil, func() {
			for _, r := range rs {
				loc.Update(r)
			}
		})
	}
}

func ledgerTrie(m *materials, out map[string]float64) {
	ps := m.prefixes
	if len(ps) > 65536 {
		ps = ps[:65536]
	}
	if len(ps) == 0 {
		return
	}
	var t *trie.Trie[int]
	out["trie.insert_ns"] = rounds(3, len(ps), func() { t = trie.New[int]() }, func() {
		for i, p := range ps {
			t.Insert(p, i)
		}
	})
	n := len(ps)
	out["trie.lookup_ns"] = measure(n, func(i int) { _, _, sinkBool = t.Lookup(ps[i%n].Addr()) }).ns
	out["trie.supernets_ns"] = measure(n, func(i int) {
		t.Supernets(ps[i%n], func(netip.Prefix, int) bool { return true })
	}).ns
}

func ledgerPools(m *materials, out map[string]float64) {
	size := min(max(m.frameBytes, 64), 65536)
	out["bufpool.getput_ns"] = measure(100000, func(int) { bufpool.Put(bufpool.Get(size)) }).ns
	out["bufpool.frame_retain_release_ns"] = measure(100000, func(int) {
		f := bufpool.NewFrame(bufpool.Get(size))
		f.Retain()
		f.Release()
		f.Release()
	}).ns
	// The floor under every workload: bytes through an in-memory pipe.
	a, b := bufconn.Pipe()
	defer a.Close()
	defer b.Close()
	kb := make([]byte, 1024)
	const kbs = 512 // stays inside the pipe's 1 MiB buffer
	out["bufconn.pipe_ns_per_kb"] = rounds(20, kbs, nil, func() {
		for i := 0; i < kbs; i++ {
			a.Write(kb)
		}
		for i := 0; i < kbs; i++ {
			io.ReadFull(b, kb)
		}
	})
}

// ledgerTunnel prices Stream.Write and the demux-plus-Stream.Read that
// answers it, at the frame size the run produced, and the packet codec.
func ledgerTunnel(m *materials, out map[string]float64) {
	size := min(max(m.frameBytes, 64), 65536)
	a, b := bufconn.Pipe()
	ma, mb := tunnel.NewMux(a, nil), tunnel.NewMux(b, nil)
	defer ma.Close()
	defer mb.Close()
	w, r := ma.Open(7), mb.Open(7)
	frame := make([]byte, size)
	frames := max(1, min(256, (256<<10)/size)) // a round stays well inside the pipe
	got := make([]byte, size)
	var writes, reads []float64
	for round := 0; round < 20; round++ {
		start := time.Now()
		for i := 0; i < frames; i++ {
			if _, err := w.Write(frame); err != nil {
				return
			}
		}
		written := time.Now()
		if waitUntil(20*time.Microsecond, func() bool { return r.Buffered() >= frames*size }) != nil {
			return
		}
		for i := 0; i < frames; i++ {
			if _, err := io.ReadFull(r, got); err != nil {
				return
			}
		}
		writes = append(writes, float64(written.Sub(start).Nanoseconds())/float64(frames))
		reads = append(reads, float64(time.Since(written).Nanoseconds())/float64(frames))
	}
	out["tunnel.write_ns_per_frame"] = median(writes)
	out["tunnel.read_ns_per_frame"] = median(reads)

	pkt := dataplane.NewPacket(netip.AddrFrom4([4]byte{172, 20, 1, 1}), netip.AddrFrom4([4]byte{11, 0, 0, 1}), dataplane.ProtoUDP)
	out["tunnel.packet_encode_ns"] = measure(50000, func(int) { sinkBytes, _ = tunnel.EncodePacket(pkt) }).ns
	enc, _ := tunnel.EncodePacket(pkt)
	out["tunnel.packet_decode_ns"] = measure(50000, func(int) { sinkPkt, _ = tunnel.DecodePacket(enc) }).ns
}

func ledgerDampen(m *materials, out map[string]float64) {
	if len(m.prefixes) == 0 {
		return
	}
	d := dampen.New(dampen.DefaultConfig(), nil)
	src := netip.AddrFrom4([4]byte{10, 251, 0, 1})
	n := min(len(m.prefixes), 65536)
	out["dampen.recordflap_ns"] = rounds(1, n, nil, func() {
		for _, p := range m.prefixes[:n] {
			sinkBool = d.RecordFlap(dampen.Key{Prefix: p, Source: src})
		}
	})
}

// countNode is a data-plane node that only counts.
type countNode struct{ n atomic.Uint64 }

func (c *countNode) Name() string                                { return "count" }
func (c *countNode) Receive(*dataplane.Packet, *dataplane.Iface) { c.n.Add(1) }

func ledgerDataplane(m *materials, out map[string]float64) {
	if len(m.prefixes) == 0 {
		return
	}
	ps := m.prefixes
	if len(ps) > 65536 {
		ps = ps[:65536]
	}
	r := dataplane.NewRouter("ledger")
	node := &countNode{}
	_, out0, _ := dataplane.Connect(r, netip.AddrFrom4([4]byte{192, 168, 0, 1}), "eg0", node, netip.AddrFrom4([4]byte{192, 168, 0, 2}), "in")
	r.AddIface(out0)
	for _, p := range ps {
		r.SetRoute(p, netip.AddrFrom4([4]byte{192, 168, 0, 2}), out0)
	}
	n := len(ps)
	out["dataplane.lookup_ns"] = measure(n, func(i int) { sinkFIB = r.LookupRoute(ps[i%n].Addr()) }).ns
	// Forwarding decrements TTL, so every round gets fresh packets.
	src := netip.AddrFrom4([4]byte{172, 20, 1, 1})
	pkts := make([]*dataplane.Packet, n)
	var ms0, ms1 runtime.MemStats
	total := 0
	runtime.ReadMemStats(&ms0)
	out["dataplane.forward_ns"] = rounds(5, n, func() {
		runtime.ReadMemStats(&ms1) // exclude packet building from the allocation count
		for i := range pkts {
			pkts[i] = dataplane.NewPacket(src, ps[i].Addr(), dataplane.ProtoUDP)
		}
		var built runtime.MemStats
		runtime.ReadMemStats(&built)
		ms0.Mallocs += built.Mallocs - ms1.Mallocs
		ms0.TotalAlloc += built.TotalAlloc - ms1.TotalAlloc
	}, func() {
		for _, p := range pkts {
			r.Receive(p, nil)
		}
		total += n
	})
	runtime.ReadMemStats(&ms1)
	out["dataplane.forward_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(total)
	out["dataplane.forward_bytes"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(total)
}

func ledgerMRT(m *materials, out map[string]float64) {
	if len(m.trace) == 0 {
		return
	}
	records := 0
	ns := rounds(3, 1, nil, func() {
		records = 0
		r := mrt.NewReader(bytes.NewReader(m.trace))
		for {
			if _, err := r.Next(); err != nil {
				return
			}
			records++
		}
	})
	if records > 0 {
		out["mrt.read_ns_per_record"] = ns / float64(records)
	}
}

// encodeClientStream packs and encodes the workload's routes as the
// mux would send them to one client.
func (m *materials) encodeClientStream(limit int) (stream []byte, nlris int) {
	groups, nlris := m.clientGroups(limit)
	for i := range groups {
		for _, u := range wire.PackGrouped(nil, groups[i:i+1], m.clientOpts) {
			var err error
			if stream, err = wire.AppendMessage(stream, u, m.clientOpts); err != nil {
				return nil, 0
			}
		}
	}
	return stream, nlris
}

// ledgerSink prices the benchmark's own sink: its UPDATE walk over the
// client-facing encoding of the workload's routes, no mux in between.
func ledgerSink(m *materials, out map[string]float64) {
	stream, nlris := m.encodeClientStream(200000)
	if nlris == 0 {
		return
	}
	id := uint32(m.pathID)
	var w *sink.Walker
	out["loadgen.sink_ns_per_nlri"] = rounds(5, nlris, func() {
		w, _ = sink.NewWalker(m.clientOpts.AddPath, []uint32{id}, sink.Range{})
	}, func() { w.Feed(stream) })
}

// fakeMux is the smallest thing a client.Client will talk to: the
// provisioning handshake and one ADD-PATH session that discards what it
// hears. It prices Client.Announce without a mux behind it.
func fakeMux(conn *bufconn.Conn, alloc netip.Prefix, heard *atomic.Int64) (*tunnel.Mux, error) {
	mux := tunnel.NewMux(conn, nil)
	ctrl := mux.Open(muxproto.StreamControl)
	prov := &muxproto.Provisioning{Site: "ledger", ASN: testbedASN, Mode: muxproto.ModeBIRD, Allocation: []netip.Prefix{alloc}}
	for id := uint32(1); id <= announceUpstreams; id++ {
		prov.Upstreams = append(prov.Upstreams, muxproto.UpstreamInfo{ID: id, ASN: 64600 + id, Name: fmt.Sprintf("up%d", id)})
	}
	if err := muxproto.WriteProvisioning(ctrl, prov); err != nil {
		return mux, err
	}
	if _, err := io.ReadFull(ctrl, make([]byte, 3)); err != nil {
		return mux, err
	}
	sess := bgp.New(mux.Open(muxproto.StreamBGPBase), bgp.Config{
		LocalAS: testbedASN, LocalID: netip.AddrFrom4([4]byte{184, 164, 224, 1}), AddPath: true,
	}, bgp.HandlerFuncs{OnUpdate: func(*bgp.Session, *wire.Update) { heard.Add(1) }})
	go sess.Run()
	return mux, nil
}

// ledgerClient prices Client.Announce: wall time per call, pipelined,
// with the far end discarding.
func ledgerClient(out map[string]float64) {
	serverEnd, clientEnd := bufconn.Pipe()
	alloc := netip.PrefixFrom(netip.AddrFrom4([4]byte{announceFirstByte, 0, 0, 0}), announceAllocBits)
	var heard atomic.Int64
	muxCh := make(chan *tunnel.Mux, 1)
	go func() {
		mux, _ := fakeMux(serverEnd, alloc, &heard)
		muxCh <- mux
	}()
	c, err := client.Connect(client.Config{Name: "ledger", RouterID: netip.AddrFrom4([4]byte{10, 251, 1, 9}), CountOnly: true}, clientEnd)
	mux := <-muxCh
	defer mux.Close()
	if err != nil {
		return
	}
	defer c.Close()
	if c.WaitEstablished(waitLimit) != nil {
		return
	}
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		if c.Announce(slash24(alloc, i), client.AnnounceOptions{}) != nil {
			return
		}
	}
	elapsed := time.Since(start)
	if waitUntil(200*time.Microsecond, func() bool { return heard.Load() >= n }) != nil {
		return
	}
	out["client.announce_ns"] = float64(elapsed.Nanoseconds()) / n
}

// ---------------------------------------------------------------------
// Live-pass counters

// runtimeProbe reads the process-wide runtime figures a live pass is
// bracketed with.
type runtimeProbe struct {
	ms        runtime.MemStats
	gcCPU     float64
	cpu       float64
	goroutine int
}

func readRuntime() runtimeProbe {
	var p runtimeProbe
	runtime.ReadMemStats(&p.ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[0].Value.Float64()
	}
	p.cpu = cpuSeconds()
	p.goroutine = runtime.NumGoroutine()
	return p
}

// heapWatch samples the heap while a live pass runs and returns the
// peak.
func heapWatch() (stop func() float64) {
	done := make(chan struct{})
	peak := make(chan float64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var hi uint64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				hi = max(hi, s[0].Value.Uint64())
			}
			select {
			case <-done:
				peak <- float64(hi)
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// runtimeCounters stores the runtime.* metrics of a live pass that made
// `deliveries` deliveries between the two probes.
func runtimeCounters(before, after runtimeProbe, deliveries float64, out map[string]float64) {
	if deliveries <= 0 {
		return
	}
	out["runtime.allocs_per_delivery"] = float64(after.ms.Mallocs-before.ms.Mallocs) / deliveries
	out["runtime.alloc_bytes_per_delivery"] = float64(after.ms.TotalAlloc-before.ms.TotalAlloc) / deliveries
	if cpu := after.cpu - before.cpu; cpu > 0 {
		out["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
}

// counterSnap is the mux's and the sinks' counters at one moment; a
// live pass is bracketed by two so that set-up (table loads, which use
// other paths than the timed part) stays out of the figures.
type counterSnap struct {
	st                   server.Stats
	sm                   map[string]float64
	bytes, frames, nlris uint64
}

func snapCounters(r *rig) counterSnap {
	c := counterSnap{st: r.srv.Stats(), sm: scrape(r.srv.Telemetry())}
	for _, s := range r.sinks {
		c.bytes += s.Stats().Bytes.Load()
		c.frames += s.Stats().Frames.Load()
		for _, id := range r.upstreamIDs() {
			t := s.Table(id).Load()
			c.nlris += t.Announced + t.Withdrawn + t.TrackedOps
		}
	}
	return c
}

// serverCounters stores what the mux's own counters moved by since
// before, and returns how many tunnel frames the mux sent per NLRI
// delivered.
func serverCounters(r *rig, before counterSnap, out map[string]float64) (framesPerNLRI float64) {
	now := snapCounters(r)
	st, was := now.st, before.st
	delta := func(name string) float64 { return now.sm[name] - before.sm[name] }
	updates := st.UpdatesToClients - was.UpdatesToClients
	out["server.updates_to_clients"] = float64(updates)
	if updates > 0 {
		out["server.nlris_per_update"] = float64(st.RoutesRelayedToClients-was.RoutesRelayedToClients) / float64(updates)
	}
	shared, private := delta("peering_fanout_frames_shared_total"), delta("peering_fanout_frames_private_total")
	if shared+private > 0 {
		out["server.frames_shared_ratio"] = shared / (shared + private)
	}
	// The ratio says nothing about how much travelled by frame: one
	// stray frame makes it 1. The count (one per frame per client) does,
	// set against server.updates_to_clients.
	out["server.frames_total"] = shared + private
	out["server.coalesced_total"] = float64(st.FanoutCoalesced - was.FanoutCoalesced)
	out["server.backpressure_total"] = float64(st.FanoutBackpressure - was.FanoutBackpressure)
	out["server.shed_total"] = float64(st.FanoutShed - was.FanoutShed)
	out["server.resyncs_total"] = float64(st.FanoutResyncs - was.FanoutResyncs)
	out["server.queue_high_water"] = float64(st.FanoutQueueHighWater) // a high-water mark has no delta
	if n := delta("peering_ingest_batch_size_count"); n > 0 {
		out["bgp.ingest_batch_mean"] = delta("peering_ingest_batch_size_sum") / n
	}
	accepted, rejected := st.PolicyAccepted-was.PolicyAccepted, st.PolicyRejected-was.PolicyRejected
	if accepted+rejected > 0 {
		out["policy.reject_share"] = float64(rejected) / float64(accepted+rejected)
	}
	out["dampen.tracked_keys"] = now.sm["peering_dampen_tracked_keys"]
	if nlris := now.nlris - before.nlris; nlris > 0 {
		frames := now.frames - before.frames
		out["tunnel.bytes_per_nlri"] = float64(now.bytes-before.bytes+8*frames) / float64(nlris)
		framesPerNLRI = float64(frames) / float64(nlris)
	}
	return framesPerNLRI
}

// meanFrame is the mean tunnel frame payload the rig's sinks received.
func meanFrame(r *rig) int {
	var bytes, frames uint64
	for _, s := range r.sinks {
		bytes += s.Stats().Bytes.Load()
		frames += s.Stats().Frames.Load()
	}
	if frames == 0 {
		return 0
	}
	return int(bytes / frames)
}

// leaked counts goroutines still alive some moments after teardown,
// beyond the number running before the rig was built.
func leaked(before int) float64 {
	n := runtime.NumGoroutine()
	for i := 0; i < 20 && n > before; i++ {
		time.Sleep(25 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return float64(max(0, n-before))
}

// sinkSpans records, per sink, the interval from its first to its most
// recent UPDATE-bearing chunk.
func sinkSpans(tr *tracer, name string, parent int, sinks []*sink.Sink) {
	for i, s := range sinks {
		first, last := s.Stats().FirstUpdate.Load(), s.Stats().LastUpdate.Load()
		if first != 0 {
			tr.add(fmt.Sprintf("%s.sink%02d.first_to_last_byte", name, i), i, parent, time.Unix(0, first), time.Unix(0, last))
		}
	}
}

// ---------------------------------------------------------------------
// Staged replay and the stage-share table

// stagedReplay pushes the workload's messages through each layer's
// public functions in pipeline order, batch by batch, recording a span
// per stage per batch under the batch's root span. It returns each
// stage's self time per route.
func stagedReplay(m *materials, tr *tracer) map[string]float64 {
	const batchSize = 128 // bgp's read batch
	var filter *compiled.Filter
	if m.rules != nil {
		filter = compiled.Compile(m.rules)
	}
	tbl := wire.NewInternTable()
	shards := rib.ShardCount(0)
	adj := rib.NewShardedAdj(shards)
	adj.SetInterner(tbl)
	a, b := bufconn.Pipe()
	ma, mb := tunnel.NewMux(a, nil), tunnel.NewMux(b, nil)
	defer ma.Close()
	defer mb.Close()
	ws, rs := ma.Open(9), mb.Open(9)
	walker, err := sink.NewWalker(m.clientOpts.AddPath, []uint32{uint32(m.pathID)}, sink.Range{})
	if err != nil {
		return nil
	}
	now := time.Now()
	routes := 0
	var readBuf []byte
	for at, id := 0, 0; at < len(m.msgs); at, id = at+batchSize, id+1 {
		msgs := m.msgs[at:min(at+batchSize, len(m.msgs))]
		tr.timed("batch", id, 0, func(root int) {
			upds := make([]*wire.Update, 0, len(msgs))
			tr.timed("wire.decode", id, root, func(int) {
				for _, raw := range msgs {
					if msg, err := wire.Decode(raw, as4); err == nil {
						if u, ok := msg.(*wire.Update); ok {
							upds = append(upds, u)
						}
					}
				}
			})
			tr.timed("wire.intern", id, root, func(int) {
				for _, u := range upds {
					u.Attrs = tbl.Intern(u.Attrs)
				}
			})
			if filter != nil {
				tr.timed("policy.verdict", id, root, func(int) {
					for _, u := range upds {
						kept := u.Reach[:0]
						for _, n := range u.Reach {
							if filter.Verdict(n.Prefix, u.Attrs, m.peer).Accept {
								kept = append(kept, n)
							}
						}
						u.Reach = kept
					}
				})
			}
			var batches []shardBatch
			tr.timed("rib.adj_update", id, root, func(int) {
				var n int
				batches, n = shardBatches(upds, shards, tbl)
				routes += n
				for i := range batches {
					applyBatch(adj, &batches[i], now)
				}
			})
			// One frame per touched shard, as the batch path builds them.
			var packed []*wire.Update
			tr.timed("wire.pack", id, root, func(int) {
				for i := range batches {
					sb := &batches[i]
					var groups []wire.AttrGroup
					if len(sb.reach) > 0 {
						ns := make([]wire.NLRI, len(sb.reach))
						for k, n := range sb.reach {
							ns[k] = wire.NLRI{Prefix: n.Prefix, ID: m.pathID}
						}
						groups = []wire.AttrGroup{{Attrs: sb.attrs, NLRIs: ns}}
					}
					wd := make([]wire.NLRI, len(sb.wd))
					for k, n := range sb.wd {
						wd[k] = wire.NLRI{Prefix: n.Prefix, ID: m.pathID}
					}
					packed = append(packed, wire.PackGrouped(wd, groups, m.clientOpts)...)
				}
			})
			var frame *bufpool.Frame
			tr.timed("wire.encode", id, root, func(int) {
				buf := bufpool.Get(64 << 10)[:0]
				for _, u := range packed {
					if b, err := wire.AppendMessage(buf, u, m.clientOpts); err == nil {
						buf = b
					}
				}
				frame = bufpool.NewFrame(buf)
			})
			tr.timed("bufpool.frame", id, root, func(int) {
				frame.Retain()
				frame.Release()
			})
			size := frame.Len()
			if size == 0 {
				frame.Release()
				return
			}
			tr.timed("tunnel.write", id, root, func(int) {
				// Stream.Write sends one frame of at most 1 MiB.
				ws.Write(frame.Bytes())
			})
			frame.Release()
			if cap(readBuf) < size {
				readBuf = make([]byte, size)
			}
			readBuf = readBuf[:size]
			tr.timed("tunnel.read", id, root, func(int) {
				io.ReadFull(rs, readBuf)
			})
			tr.timed("sink.walk", id, root, func(int) { walker.Feed(readBuf) })
		})
	}
	if routes == 0 {
		return nil
	}
	per := make(map[string]float64)
	for name, d := range tr.selfTimes() {
		per[name] = float64(d.Nanoseconds()) / float64(routes)
	}
	return per
}

// stageRow is one line of the stage-share table.
type stageRow struct {
	stage string
	// ns is the layer's cost per route for one call; calls is how many
	// times a route crosses the layer on this workload.
	ns, calls float64
}

// tunnelRows prices the tunnel per route from the ledger's pipelined
// per-frame figures and the live pass's frames per NLRI. (The staged
// replay's own tunnel spans hand one frame at a time to the peer's
// reader goroutine, so they mostly time a goroutine wake-up; they stay
// in the span file but not in the table.)
func tunnelRows(out map[string]float64, framesPerNLRI, calls float64) []stageRow {
	return []stageRow{
		{"tunnel.write", out["tunnel.write_ns_per_frame"] * framesPerNLRI, calls},
		{"tunnel.read", out["tunnel.read_ns_per_frame"] * framesPerNLRI, calls},
	}
}

// gcRow charges the collector's measured CPU share of the live pass.
// Layer figures already contain the allocation assists their own calls
// triggered, so the two overlap a little; the table says so.
func gcRow(out map[string]float64, cpuNs float64) stageRow {
	return stageRow{"runtime.gc (measured)", out["runtime.gc_cpu_share"] * cpuNs, 1}
}

// stageTable prints rows against the live pass's CPU per route and
// returns the share of it the rows do not account for.
func stageTable(workload string, rows []stageRow, cpuNsPerRoute float64) (selfShare float64) {
	fmt.Printf("\nstage share, %s: layer ns/route × calls/route against %.0f ns CPU per route\n", workload, cpuNsPerRoute)
	sum := 0.0
	for _, r := range rows {
		if r.calls == 0 || r.ns == 0 {
			continue
		}
		sum += r.ns * r.calls
		fmt.Printf("  %-22s %10.1f ns × %5.1f = %10.1f ns  %5.1f%%\n", r.stage, r.ns, r.calls, r.ns*r.calls, 100*r.ns*r.calls/cpuNsPerRoute)
	}
	if cpuNsPerRoute <= 0 {
		return 0
	}
	selfShare = 1 - sum/cpuNsPerRoute
	fmt.Printf("  %-22s %35.1f ns  %5.1f%%  (accounted)\n", "sum of layers", sum, 100*sum/cpuNsPerRoute)
	fmt.Printf("  %-22s %35.1f ns  %5.1f%%  (server.self_cpu_share: queues, locks, goroutine hand-offs)\n",
		"residual", cpuNsPerRoute-sum, 100*selfShare)
	return selfShare
}
