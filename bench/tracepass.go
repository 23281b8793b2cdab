package main

// The traced pass of each workload (--trace 1): one live repetition
// with harness-boundary spans and the mux's counters, then the layer
// ledger and — for the route workloads — the staged replay, reconciled
// against the live pass's CPU per route in a stage-share table.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"runtime"
	"sort"
	"time"

	"peering/bench/sink"
	"peering/internal/client"
	"peering/internal/mrt"
	"peering/internal/muxproto"
	"peering/internal/policy/compiled"
	"peering/internal/server"
	"peering/internal/wire"
)

// birdOpts is the client-facing codec state of a BIRD-mode mux.
var birdOpts = wire.Options{AddPath: true, AS4: true}

// tablePrefixes lists a table's prefixes (at most limit).
func tablePrefixes(t *table, limit int) []netip.Prefix {
	n := min(len(t.routes), limit)
	ps := make([]netip.Prefix, n)
	for i := range ps {
		ps[i] = t.routes[i].prefix
	}
	return ps
}

// tailLatencies stores the probes' upper percentiles, which the traced
// pass reports as layer figures (they are too jumpy on a shared box to
// carry a regression bound).
func tailLatencies(l *latencies, out map[string]float64) {
	sort.Float64s(l.ms)
	out["server.probe_p90_ms"] = quantile(l.ms, 0.90)
	out["server.probe_p99_ms"] = quantile(l.ms, 0.99)
}

// finish writes the span file and copies the ledger into the result.
func finish(p params, res *result, tr *tracer, out map[string]float64) error {
	for k, v := range out {
		res.Metrics[k] = v
	}
	return tr.write(p.outDir, res.Workload)
}

func traceFulltable(p params, res *result) error {
	out := map[string]float64{}
	tr := newTracer()
	gor0 := runtime.NumGoroutine()
	in, err := buildFulltable(p)
	if err != nil {
		return err
	}
	accepted := float64(in.tab.accepted())

	// Live pass, spans on.
	r := in.rig
	c0 := snapCounters(r)
	rt0 := readRuntime()
	peak := heapWatch()
	var m *fanoutRep
	var root int
	tr.timed("live.replay_to_convergence", 0, 0, func(id int) {
		root = id
		m, err = replayInto(r, in)
	})
	out["runtime.peak_heap_bytes"] = peak()
	if err != nil {
		r.close()
		return err
	}
	rt1 := readRuntime()
	res.Attempted += uint64(accepted) * fanoutSinks
	res.fail(m.failed, "table never converged")
	res.fail(checkTables(r.sinks, map[uint32]*sink.Table{1: in.model}), "sink tables differ from the model")
	sinkSpans(tr, "live", root, r.sinks)
	framesPerNLRI := serverCounters(r, c0, out)
	runtimeCounters(rt0, rt1, accepted*fanoutSinks, out)
	out["server.ingest_s"] = m.ingest
	frame := meanFrame(r)
	cpuNsPerRoute := m.cpu * 1e9 / accepted
	liveCPU := m.cpu
	tracedRate := accepted / m.converge

	gen, err := newChurn(p.seed, smallTrack, in.tab.peerAS, netip.AddrFrom4([4]byte{10, 0, 1, 1}), in.model)
	if err != nil {
		return err
	}
	var lat latencies
	probe := &routeProbe{rig: r, id: 1, gen: gen, send: m.sess.Send, sinks: r.sinks}
	lat.probeFor(p.span(tracedProbeShare), func() (time.Duration, bool) {
		var took time.Duration
		var ok bool
		tr.timed("live.probe_send_to_all_held", len(lat.ms), 0, func(int) { took, ok = probe.one(res) })
		return took, ok
	})
	tailLatencies(&lat, out)
	resetTracked(in.model, smallTrack)
	m.sess.Close()
	r.close()
	in.rig, probe = nil, nil
	out["runtime.goroutines_leaked"] = leaked(gor0)

	// The same pass with spans off: the ratio is what tracing costs.
	runtime.GC()
	r2, err := fanoutRig(in)
	if err != nil {
		return err
	}
	m2, err := replayInto(r2, in)
	if err == nil {
		out["trace.overhead_ratio"] = tracedRate / (accepted / m2.converge)
		m2.sess.Close()
	}
	r2.close()

	if ratio, err := fullClientRatio(p); err == nil {
		out["client.fullclient_ratio"] = ratio
	}

	mat := &materials{
		msgs: in.tab.msgs, upds: in.tab.upds, trace: in.tab.trace,
		rules: in.rules, peer: compiled.Peer{AS: in.tab.peerAS, Transit: true},
		clientOpts: birdOpts, pathID: 1,
		prefixes: tablePrefixes(in.tab, 65536), frameBytes: frame,
	}
	ledger(mat, out)
	ledgerClient(out)
	stages := stagedReplay(mat, tr)
	perUpdate := float64(len(in.tab.msgs)) / accepted
	rows := []stageRow{
		{"mrt.read", out["mrt.read_ns_per_record"] * perUpdate, 1},
		{"replay decode", out["wire.decode_ns_per_update"] * perUpdate, 1},
		{"replay session", out["bgp.session_ns_per_update"] * perUpdate, 1},
		{"wire.decode", stages["wire.decode"], 1},
		{"wire.intern", stages["wire.intern"], 1},
		{"policy.verdict", stages["policy.verdict"], 1},
		{"rib.adj_update", stages["rib.adj_update"], 1},
		{"wire.pack", stages["wire.pack"], 1},
		{"wire.encode", stages["wire.encode"], 1},
		{"bufpool.frame", stages["bufpool.frame"], 1},
		{"sink.walk", stages["sink.walk"], fanoutSinks},
	}
	rows = append(rows, tunnelRows(out, framesPerNLRI, fanoutSinks)...)
	rows = append(rows, gcRow(out, cpuNsPerRoute))
	out["server.self_cpu_share"] = stageTable(res.Workload, rows, cpuNsPerRoute)
	// The benchmark's own share: the replayer (MRT read, decode,
	// session send) and the sinks.
	loadgen := (rows[0].ns + rows[1].ns + rows[2].ns + out["loadgen.sink_ns_per_nlri"]*fanoutSinks) * accepted / 1e9
	out["loadgen.cpu_share"] = loadgen / liveCPU
	return finish(p, res, tr, out)
}

// fullClientRatio replays a quarter-size table once into real
// client.Clients (CountOnly) and once into sinks, and returns the
// clients' delivery rate as a share of the sinks'.
func fullClientRatio(p params) (float64, error) {
	q := p
	q.scale = p.scale / 4
	in, err := buildFulltable(q)
	if err != nil {
		return 0, err
	}
	m, err := replayInto(in.rig, in)
	if err != nil {
		in.rig.close()
		return 0, err
	}
	m.sess.Close()
	in.rig.close()
	sinkSecs := m.converge

	r := newRig(server.Config{Mode: muxproto.ModeBIRD, Policy: in.rules}, smallTrack)
	defer r.close()
	up, err := r.addUpstream(1, in.tab.peerAS)
	if err != nil {
		return 0, err
	}
	clients := make([]*client.Client, fanoutSinks)
	for i := range clients {
		c, err := r.connect(server.ClientAccount{
			ID:         fmt.Sprintf("c%02d", i),
			Allocation: []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 16, byte(i), 0}), 24)},
			TunnelAddr: netip.AddrFrom4([4]byte{10, 250, 0, byte(i + 1)}),
		}, netip.AddrFrom4([4]byte{172, 16, byte(i), 1}))
		if err != nil {
			return 0, err
		}
		defer c.Close()
		clients[i] = c
	}
	want := in.tab.accepted()
	start := time.Now()
	_, sess, err := r.srv.ReplayUpstream(up, mrt.NewReader(bytes.NewReader(in.tab.trace)), mrt.ReplayConfig{})
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	if err := waitUntil(time.Millisecond, func() bool {
		for _, c := range clients {
			if c.TotalRouteCount() < want {
				return false
			}
		}
		return true
	}); err != nil {
		return 0, err
	}
	return sinkSecs / time.Since(start).Seconds(), nil
}

// splitMessages cuts a run of back-to-back BGP messages into slices.
func splitMessages(b []byte) [][]byte {
	var msgs [][]byte
	for len(b) >= 19 {
		l := int(binary.BigEndian.Uint16(b[16:18]))
		if l < 19 || l > len(b) {
			break
		}
		msgs = append(msgs, b[:l:l])
		b = b[l:]
	}
	return msgs
}

func traceChurn(p params, res *result) error {
	out := map[string]float64{}
	tr := newTracer()
	gor0 := runtime.NumGoroutine()
	in, err := buildChurn(p)
	if err != nil {
		return err
	}
	perRep := p.size(churnRep, 500)
	streams, err := in.encodeRep(perRep)
	if err != nil {
		in.close()
		return err
	}
	ops := float64(perRep * churnUpstreams)

	c0 := snapCounters(in.rig)
	rt0 := readRuntime()
	peak := heapWatch()
	var wall, cpu float64
	var root int
	tr.timed("live.push_to_drained", 0, 0, func(id int) {
		root = id
		wall, cpu, err = in.sendRep(streams, perRep, res)
	})
	out["runtime.peak_heap_bytes"] = peak()
	if err != nil {
		in.close()
		return err
	}
	rt1 := readRuntime()
	sinkSpans(tr, "live", root, in.rig.sinks)
	framesPerNLRI := serverCounters(in.rig, c0, out)
	runtimeCounters(rt0, rt1, ops*fanoutSinks, out)
	cpuNsPerRoute := cpu * 1e9 / ops
	tracedRate := ops / wall

	// Spans off, same size: the tracing overhead.
	streams2, err := in.encodeRep(perRep)
	if err != nil {
		in.close()
		return err
	}
	if wall2, _, err := in.sendRep(streams2, perRep, res); err == nil {
		out["trace.overhead_ratio"] = tracedRate / (ops / wall2)
	}

	// Probe phase. Each probe must enter the mux alone: a batch of one
	// takes the single-update path, which the batch-size histogram does
	// not observe, so the histogram must not move at all.
	batches0 := scrape(in.rig.srv.Telemetry())
	var lat latencies
	probes := make([]*routeProbe, len(in.gens))
	for i, g := range in.gens {
		probes[i] = &routeProbe{rig: in.rig, id: uint32(i + 1), gen: g, send: speakerSend(in.speakers[i]), sinks: in.rig.sinks}
	}
	k := 0
	lat.probeFor(p.span(tracedProbeShare), func() (time.Duration, bool) {
		k++
		var took time.Duration
		var ok bool
		tr.timed("live.probe_send_to_all_held", k, 0, func(int) { took, ok = probes[k%len(probes)].one(res) })
		return took, ok
	})
	tailLatencies(&lat, out)
	batches1 := scrape(in.rig.srv.Telemetry())
	res.Info["probe_phase_batched_ops"] = batches1["peering_ingest_batch_size_count"] - batches0["peering_ingest_batch_size_count"]

	// 10K updates/s is about a tenth of what the mux sustains at the
	// calibrated size; smaller runs (the smoke test, the race detector)
	// get a proportionally gentler schedule.
	in.openLoop(10000*min(1, 20*p.scale), 2*time.Second, res, out)

	res.fail(checkTables(in.rig.sinks, in.models), "sink tables differ from the model")
	frame, track := meanFrame(in.rig), in.rig.track
	probes = nil
	in.close()
	out["runtime.goroutines_leaked"] = leaked(gor0)

	// The ledger prices one upstream's share of the repetition.
	msgs := splitMessages(streams[0])
	upds := make([]*wire.Update, 0, len(msgs))
	for _, raw := range msgs {
		if msg, err := wire.Decode(raw, as4); err == nil {
			if u, ok := msg.(*wire.Update); ok {
				upds = append(upds, u)
			}
		}
	}
	mat := &materials{
		msgs: msgs, upds: upds, clientOpts: as4,
		prefixes: poolPrefixes(track), frameBytes: frame,
	}
	ledger(mat, out)
	ledgerClient(out)
	stages := stagedReplay(mat, tr)
	// Quagga mode below the frame threshold: every client's flusher
	// packs and encodes its own copy of each operation.
	rows := []stageRow{
		{"generator write", out["bufconn.pipe_ns_per_kb"] * float64(len(streams[0])) / 1024 / float64(len(msgs)), 1},
		{"wire.decode", stages["wire.decode"], 1},
		{"wire.intern", stages["wire.intern"], 1},
		{"rib.adj_update", stages["rib.adj_update"], 1},
		{"wire.pack", stages["wire.pack"], fanoutSinks},
		{"wire.encode", stages["wire.encode"], fanoutSinks},
		{"sink.walk", stages["sink.walk"], fanoutSinks},
	}
	rows = append(rows, tunnelRows(out, framesPerNLRI, fanoutSinks)...)
	rows = append(rows, gcRow(out, cpuNsPerRoute))
	out["server.self_cpu_share"] = stageTable(res.Workload, rows, cpuNsPerRoute)
	out["loadgen.cpu_share"] = (rows[0].ns + out["loadgen.sink_ns_per_nlri"]*fanoutSinks) / cpuNsPerRoute
	return finish(p, res, tr, out)
}

// poolPrefixes lists a tracked range's /24s (at most 65536).
func poolPrefixes(rng sink.Range) []netip.Prefix {
	ps := make([]netip.Prefix, min(rng.N, 65536))
	for i := range ps {
		ps[i] = rng.Prefix(i)
	}
	return ps
}

// openLoop sends single-NLRI UPDATEs through upstream 1 on a fixed
// schedule, whatever the mux does, and times each from the moment it
// was due until every sink had applied it. Diagnostic only: on two
// cores the generator and the mux share the processor, so the figures
// are printed with how late the generator itself ran.
func (in *churnInputs) openLoop(rate float64, d time.Duration, res *result, out map[string]float64) {
	gen, sp := in.gens[0], in.speakers[0]
	// No more operations than the pool has slots: the generator visits
	// each slot once per cycle, so no two operations of the segment
	// share a prefix and the mux cannot coalesce any of them.
	n := min(int(rate*d.Seconds()), gen.rng.N)
	msgs := make([][]byte, n)
	for i := range msgs {
		b, err := wire.AppendMessage(nil, gen.op(), as4)
		if err != nil {
			return
		}
		msgs[i] = b
	}
	applied := func() uint64 {
		least := ^uint64(0)
		for _, s := range in.rig.sinks {
			least = min(least, s.Table(1).Load().TrackedOps)
		}
		return least
	}
	base := applied()
	res.Attempted += uint64(n)
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now().Add(time.Millisecond)
	due := func(i int) time.Time { return t0.Add(time.Duration(i) * interval) }
	done := make(chan []float64, 1)
	go func() {
		// Nothing coalesces (see above), so operation i has landed
		// everywhere once the slowest sink has applied i+1.
		lats := make([]float64, 0, n)
		deadline := time.Now().Add(d + waitLimit)
		for len(lats) < n && time.Now().Before(deadline) {
			select {
			case <-in.rig.wake:
			case <-time.After(time.Millisecond):
			}
			have, now := int(applied()-base), time.Now()
			for len(lats) < min(have, n) {
				lats = append(lats, float64(now.Sub(due(len(lats))).Nanoseconds())/1e6)
			}
		}
		done <- lats
	}()
	late := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if wait := time.Until(due(i)); wait > 0 {
			time.Sleep(wait)
		}
		late = append(late, float64(time.Since(due(i)).Nanoseconds())/1e6)
		if _, err := sp.Write(msgs[i]); err != nil {
			break
		}
	}
	lats := <-done
	res.fail(uint64(n-len(lats)), "open-loop updates never reached every sink")
	if err := in.waitInStep(); err != nil {
		res.fail(1, "open-loop segment never drained")
	}
	sort.Float64s(lats)
	sort.Float64s(late)
	out["server.openloop_p50_ms"] = quantile(lats, 0.50)
	out["server.openloop_p99_ms"] = quantile(lats, 0.99)
	out["loadgen.late_p99_ms"] = quantile(late, 0.99)
}

func traceJoin(p params, res *result) error {
	out := map[string]float64{}
	tr := newTracer()
	gor0 := runtime.NumGoroutine()
	in, err := buildJoin(p)
	if err != nil {
		return err
	}
	table := float64(len(in.tab.routes))

	c0 := snapCounters(in.rig)
	rt0 := readRuntime()
	peak := heapWatch()
	var walls []float64
	var cpuSum float64
	for w := 0; w < joinWaves; w++ {
		first := len(in.rig.sinks)
		var wall, cpu float64
		var root int
		tr.timed("live.wave_attach_to_complete", w, 0, func(id int) {
			root = id
			wall, cpu, err = in.wave(joinPerWave, res)
		})
		if err != nil {
			in.close()
			return err
		}
		sinkSpans(tr, fmt.Sprintf("live.wave%d", w), root, in.rig.sinks[first:])
		walls = append(walls, wall)
		cpuSum += cpu
	}
	out["runtime.peak_heap_bytes"] = peak()
	rt1 := readRuntime()
	deliveries := table * joinPerWave * joinWaves
	runtimeCounters(rt0, rt1, deliveries, out)
	framesPerNLRI := serverCounters(in.rig, c0, out)
	res.fail(checkTables(in.rig.sinks, map[uint32]*sink.Table{1: in.model}), "sink tables differ from the model")
	frame := meanFrame(in.rig)
	cpuNsPerDelivery := cpuSum * 1e9 / deliveries

	gen, err := newChurn(p.seed, smallTrack, in.tab.peerAS, in.rig.ups[0].Config().PeerAddr, in.model)
	if err != nil {
		return err
	}
	var lat latencies
	probe := &routeProbe{rig: in.rig, id: 1, gen: gen, send: speakerSend(in.speaker), sinks: in.rig.sinks}
	lat.probeFor(p.span(tracedProbeShare), func() (time.Duration, bool) { return probe.one(res) })
	tailLatencies(&lat, out)

	// Client churn: every joiner leaves, four more attach. The ratio to
	// the first wave shows whether detach cycles leave the mux slower.
	for _, s := range in.rig.sinks {
		s.Close()
	}
	if err := waitUntil(time.Millisecond, func() bool { return in.rig.srv.ClientCount() == 0 }); err != nil {
		res.fail(1, "departed clients never detached")
	}
	in.rig.sinks = nil
	rejoin, _, err := in.wave(joinPerWave, res)
	if err == nil && walls[0] > 0 {
		out["server.rejoin_slowdown"] = rejoin / walls[0]
	}
	// Spans off: one more wave on a fresh mux for the tracing overhead.
	probe = nil
	in.close()
	out["runtime.goroutines_leaked"] = leaked(gor0)
	runtime.GC()
	if err := in.load(); err != nil {
		return err
	}
	if wall2, _, err := in.wave(joinPerWave, res); err == nil {
		out["trace.overhead_ratio"] = wall2 / walls[0]
	}
	in.close()

	mat := &materials{
		msgs: in.tab.msgs, upds: in.tab.upds, clientOpts: birdOpts, pathID: 1,
		prefixes: tablePrefixes(in.tab, 65536), frameBytes: frame,
	}
	ledger(mat, out)
	ledgerClient(out)
	stages := stagedReplay(mat, tr)
	// Per delivery: the replay walk, then a private pack and encode of
	// every snapshot frame for every joiner.
	rows := []stageRow{
		{"rib.walk", out["rib.walk_ns_per_route"], 1},
		{"wire.pack", stages["wire.pack"], 1},
		{"wire.encode", stages["wire.encode"], 1},
		{"sink.walk", stages["sink.walk"], 1},
	}
	rows = append(rows, tunnelRows(out, framesPerNLRI, 1)...)
	rows = append(rows, gcRow(out, cpuNsPerDelivery))
	out["server.self_cpu_share"] = stageTable(res.Workload, rows, cpuNsPerDelivery)
	out["loadgen.cpu_share"] = out["loadgen.sink_ns_per_nlri"] / cpuNsPerDelivery
	return finish(p, res, tr, out)
}

func traceAnnounce(p params, res *result) error {
	out := map[string]float64{}
	tr := newTracer()
	gor0 := runtime.NumGoroutine()
	in, err := buildAnnounce(p)
	if err != nil {
		return err
	}
	burst := p.size(announceBurst, 64)
	c0 := snapCounters(in.rig)
	rt0 := readRuntime()
	peak := heapWatch()
	var events uint64
	var wall, cpu float64
	tr.timed("live.announce_to_both_peers", 0, 0, func(int) { events, wall, cpu, err = in.burst(burst, res) })
	out["runtime.peak_heap_bytes"] = peak()
	if err != nil {
		in.close()
		return err
	}
	rt1 := readRuntime()
	runtimeCounters(rt0, rt1, float64(events*announceUpstreams), out)
	cpuNsPerEvent := cpu * 1e9 / float64(events)
	tracedRate := float64(events) / wall
	if events2, wall2, _, err := in.burst(burst, res); err == nil {
		out["trace.overhead_ratio"] = tracedRate / (float64(events2) / wall2)
	}
	var lat latencies
	lat.probeFor(p.span(tracedProbeShare), func() (time.Duration, bool) {
		var took time.Duration
		var ok bool
		tr.timed("live.probe_announce_to_both_peers", in.probes, 0, func(int) { took, ok = in.probe(res) })
		return took, ok
	})
	tailLatencies(&lat, out)
	serverCounters(in.rig, c0, out)
	st := in.rig.srv.Stats()
	res.fail(absDiff(st.HijacksBlocked, in.total.hijack)+absDiff(st.OriginBlocked, in.total.org)+absDiff(st.PolicyRejected, in.total.leak),
		"safety counters differ from the injected bad announcements")
	in.close()
	out["runtime.goroutines_leaked"] = leaked(gor0)

	// The ledger prices the client's own UPDATEs: one announcement per
	// /24 in each variant's attributes, as the client builds them.
	alloc := netip.PrefixFrom(netip.AddrFrom4([4]byte{announceFirstByte, 0, 0, 0}), announceAllocBits)
	mat := &materials{rules: in.rules, peer: compiled.Peer{AS: testbedASN}, clientOpts: as4, frameBytes: 64}
	for i := 0; i < 4096; i++ {
		a := &wire.Attrs{Origin: wire.OriginIGP, NextHop: netip.AddrFrom4([4]byte{10, 251, 1, 1})}
		a.PrependAS(testbedASN, 1+in.variants[i%len(in.variants)].opts.Prepend)
		for _, c := range in.variants[i%len(in.variants)].opts.Communities {
			a.AddCommunity(c)
		}
		pfx := slash24(alloc, i)
		u := &wire.Update{Attrs: a, Reach: []wire.NLRI{{Prefix: pfx}}}
		raw, err := wire.Marshal(u, as4)
		if err != nil {
			return err
		}
		mat.msgs, mat.upds, mat.prefixes = append(mat.msgs, raw), append(mat.upds, u), append(mat.prefixes, pfx)
	}
	ledger(mat, out)
	ledgerClient(out)
	// Per event (an announcement or a withdrawal heard by both peers):
	// the client builds and sends it, the mux decodes it once and then
	// vets, dampens, interns and re-encodes it per upstream.
	rows := []stageRow{
		{"client.announce", out["client.announce_ns"], 1},
		{"wire.decode", out["wire.decode_ns_per_update"], 1},
		{"policy.verdictpath", out["policy.verdictpath_ns"], announceUpstreams},
		{"dampen.recordflap", out["dampen.recordflap_ns"], announceUpstreams},
		{"wire.intern", out["wire.intern_hit_ns"], announceUpstreams},
		{"bgp.session", out["bgp.session_ns_per_update"], announceUpstreams},
		{"sink.walk", out["loadgen.sink_ns_per_nlri"], announceUpstreams},
		gcRow(out, cpuNsPerEvent),
	}
	out["server.self_cpu_share"] = stageTable(res.Workload, rows, cpuNsPerEvent)
	out["loadgen.cpu_share"] = (rows[0].ns + rows[6].ns*announceUpstreams) / cpuNsPerEvent
	return finish(p, res, tr, out)
}

func traceDataplane(p params, res *result) error {
	out := map[string]float64{}
	tr := newTracer()
	gor0 := runtime.NumGoroutine()
	in, err := buildDataplane(p)
	if err != nil {
		return err
	}
	burst := p.size(dataplaneBurst, 200)
	bgp0 := bgpMessages(in.rig)
	c0 := snapCounters(in.rig)
	rt0 := readRuntime()
	peak := heapWatch()
	var legit, spoofed uint64
	var wall, cpu float64
	tr.timed("live.send_to_egress", 0, 0, func(int) { legit, spoofed, wall, cpu, err = in.burst(burst, res) })
	out["runtime.peak_heap_bytes"] = peak()
	if err != nil {
		in.close()
		return err
	}
	rt1 := readRuntime()
	runtimeCounters(rt0, rt1, float64(legit+spoofed), out)
	cpuNsPerPacket := cpu * 1e9 / float64(legit+spoofed)
	tracedRate := float64(legit) / wall
	if legit2, _, wall2, _, err := in.burst(burst, res); err == nil {
		out["trace.overhead_ratio"] = tracedRate / (float64(legit2) / wall2)
	}
	var lat latencies
	lat.probeFor(p.span(tracedProbeShare), func() (time.Duration, bool) { return in.probe(res) })
	tailLatencies(&lat, out)
	serverCounters(in.rig, c0, out)
	_, wrong := in.delivered()
	res.fail(wrong, "packets reached the wrong egress, were spoofed, or had the wrong TTL")
	res.fail(uint64(bgpMessages(in.rig)-bgp0), "BGP messages moved during a data-plane-only workload")
	fib := make([]netip.Prefix, 0, len(in.dsts))
	for _, d := range in.dsts {
		fib = append(fib, netip.PrefixFrom(d.addr, 24).Masked())
	}
	in.close()
	out["runtime.goroutines_leaked"] = leaked(gor0)

	mat := &materials{clientOpts: as4, prefixes: fib, frameBytes: 64}
	ledger(mat, out)
	ledgerClient(out)
	// Per packet: the client encodes it and writes two tunnel frames
	// (length, body); the mux reads them, decodes, checks the source
	// against the allocation trie, and forwards through the FIB.
	rows := []stageRow{
		{"tunnel.packet_encode", out["tunnel.packet_encode_ns"], 1},
		{"tunnel.write", out["tunnel.write_ns_per_frame"], 2},
		{"tunnel.read", out["tunnel.read_ns_per_frame"], 2},
		{"tunnel.packet_decode", out["tunnel.packet_decode_ns"], 1},
		{"trie.lookup (spoof)", out["trie.lookup_ns"], 1},
		{"dataplane.forward", out["dataplane.forward_ns"], 1},
		gcRow(out, cpuNsPerPacket),
	}
	out["server.self_cpu_share"] = stageTable(res.Workload, rows, cpuNsPerPacket)
	out["loadgen.cpu_share"] = (rows[0].ns + rows[1].ns*2) / cpuNsPerPacket
	return finish(p, res, tr, out)
}
