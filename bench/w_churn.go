package main

// churn_smallupdate: the smallest message, where per-message cost
// dominates. A Quagga-mode mux (one session per client × upstream, the
// deployed mode) with two upstreams holds a base table plus a pool of
// /24s; the timed part pushes single-NLRI UPDATEs over the pool —
// re-announcements with changed attributes and, one time in eight, a
// withdrawal — through both upstreams at once, closed loop, and then
// sends updates one at a time to time the path with nothing queued.

import (
	"fmt"
	"sync"
	"time"

	"peering/bench/sink"
	"peering/internal/muxproto"
	"peering/internal/server"
	"peering/internal/wire"
)

const (
	churnUpstreams = 2
	// churnBase is the generated base table per upstream; churnPool the
	// /24 pool the updates cycle over (a power of two: the generator's
	// odd stride then visits every slot). Both are smaller than a
	// deployment's so that set-up, which loads them three times, stays
	// a small part of the run.
	churnBase = 65536
	churnPool = 32768
	// churnRep is the number of UPDATEs per upstream in one timed
	// repetition.
	churnRep = 40000
)

// churnInputs is what set-up produces: a mux holding base table and
// pool, with every sink in step with the model.
type churnInputs struct {
	rig      *rig
	speakers []*sink.Speaker
	models   map[uint32]*sink.Table
	gens     []*churn
	baseSize int
}

func (in *churnInputs) close() {
	in.rig.close() // before the speakers; see joinInputs.close
	for _, sp := range in.speakers {
		sp.Close()
	}
	in.rig, in.speakers = nil, nil
}

func buildChurn(p params) (*churnInputs, error) {
	track := sink.Range{Base: 10 << 24, N: 1 << bitsFor(p.size(churnPool, 256))}
	tabs, err := genTables(p.seed, p.size(churnBase, 1000), churnUpstreams)
	if err != nil {
		return nil, err
	}
	in := &churnInputs{
		rig:      newRig(server.Config{Mode: muxproto.ModeQuagga}, track),
		models:   make(map[uint32]*sink.Table),
		baseSize: len(tabs[0].routes),
	}
	for i, t := range tabs {
		if _, err := in.rig.addUpstream(uint32(i+1), t.peerAS); err != nil {
			return nil, err
		}
	}
	sinks, err := in.rig.attach(fanoutSinks)
	if err != nil {
		return nil, err
	}
	for _, u := range in.rig.ups {
		sp, err := in.rig.speak(u)
		if err != nil {
			return nil, err
		}
		in.speakers = append(in.speakers, sp)
	}
	if err := in.rig.waitEstablished(sinks); err != nil {
		return nil, err
	}
	// Load base table and pool through both upstreams at once.
	errs := make(chan error, len(tabs))
	for i, t := range tabs {
		id := uint32(i + 1)
		model := t.model(track)
		in.models[id] = model
		gen, err := newChurn(p.seed*7+int64(id), track, t.peerAS, in.rig.ups[i].Config().PeerAddr, model)
		if err != nil {
			return nil, err
		}
		in.gens = append(in.gens, gen)
		pool, err := gen.fill()
		if err != nil {
			return nil, err
		}
		go func(sp *sink.Speaker, raw []byte) {
			err := writeChunked(sp, raw)
			if err == nil {
				err = writeChunked(sp, pool)
			}
			errs <- err
		}(in.speakers[i], t.raw)
	}
	for range tabs {
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	if err := in.waitInStep(); err != nil {
		return nil, fmt.Errorf("loading the base table: %w", err)
	}
	return in, nil
}

// waitInStep waits until every sink's tables equal the models.
func (in *churnInputs) waitInStep() error {
	return waitUntil(time.Millisecond, func() bool {
		for id, m := range in.models {
			if !sinksHold(in.rig.sinks, id, m.Counts()) {
				return false
			}
		}
		return true
	})
}

// bitsFor returns the exponent of the largest power of two ≤ n.
func bitsFor(n int) int {
	b := 0
	for 1<<(b+1) <= n {
		b++
	}
	return b
}

// fill announces the whole pool in packed UPDATEs (the table-load
// shape), so the timed single-NLRI stream starts from a steady state
// instead of spending its first pass populating an empty RIB.
func (c *churn) fill() ([]byte, error) {
	groups := make([]wire.AttrGroup, len(c.sets))
	for i := 0; i < c.rng.N; i++ {
		a := i % len(c.sets)
		p := c.rng.Prefix(i)
		groups[a].Attrs = c.sets[a]
		groups[a].NLRIs = append(groups[a].NLRIs, wire.NLRI{Prefix: p})
		c.model.AnnouncePrefix(p, c.hashes[a])
	}
	var b []byte
	for _, g := range groups {
		if len(g.NLRIs) == 0 {
			continue
		}
		for _, u := range wire.PackGrouped(nil, []wire.AttrGroup{g}, as4) {
			var err error
			if b, err = wire.AppendMessage(b, u, as4); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

func runChurn(p params, res *result) error {
	if p.trace {
		return traceChurn(p, res)
	}
	in, setup, err := medianSetup(p, func() (*churnInputs, error) { return buildChurn(p) }, (*churnInputs).close)
	if err != nil {
		return err
	}
	res.Metrics["setup_s"] = setup
	res.Info["base_prefixes"] = float64(in.baseSize)
	res.Info["pool_prefixes"] = float64(in.rig.track.N)
	res.Info["sinks"] = fanoutSinks
	res.Info["upstreams"] = churnUpstreams

	perRep := p.size(churnRep, 500)
	res.Info["updates_per_repetition"] = float64(perRep * churnUpstreams)
	probes := make([]*routeProbe, len(in.gens))
	for i, g := range in.gens {
		probes[i] = &routeProbe{rig: in.rig, id: uint32(i + 1), gen: g, send: speakerSend(in.speakers[i]), sinks: in.rig.sinks}
	}
	var lat latencies
	var reps series
	k := 0
	for reps.more(p, 3) {
		wall, cpu, err := in.churnRep(perRep, res)
		if err != nil {
			in.close()
			return err
		}
		ops := float64(perRep * churnUpstreams)
		reps.add(ops, ops*fanoutSinks, wall, cpu)
		// One update in flight, alternating upstreams.
		lat.probeFor(probeShare(wall), func() (time.Duration, bool) {
			k++
			return probes[k%len(probes)].one(res)
		})
	}
	reps.report(res)
	lat.report(res)

	res.fail(checkTables(in.rig.sinks, in.models), "sink tables differ from the model")
	st := in.rig.srv.Stats()
	res.fail(st.FanoutShed+st.FanoutResyncs, "the mux shed or resynced a client")
	held := float64((in.baseSize + in.rig.track.N) * churnUpstreams)
	probes = nil
	res.Metrics["heap_bytes_per_route"] = float64(releasedBy(in.close)) / held
	return nil
}

// churnRep pushes n single-NLRI UPDATEs through each upstream at once
// and waits until every sink equals the model again.
func (in *churnInputs) churnRep(n int, res *result) (wall, cpu float64, err error) {
	streams, err := in.encodeRep(n)
	if err != nil {
		return 0, 0, err
	}
	return in.sendRep(streams, n, res)
}

// encodeRep generates each upstream's next n operations, encoded, and
// advances the models past them.
func (in *churnInputs) encodeRep(n int) ([][]byte, error) {
	streams := make([][]byte, len(in.gens))
	for i, g := range in.gens {
		var err error
		if streams[i], err = g.encode(nil, n); err != nil {
			return nil, err
		}
	}
	return streams, nil
}

// sendRep is the timed part of a repetition whose streams carry n
// operations each.
func (in *churnInputs) sendRep(streams [][]byte, n int, res *result) (wall, cpu float64, err error) {
	res.Attempted += uint64(n * len(streams) * len(in.rig.sinks))
	w := openWindow()
	var wg sync.WaitGroup
	errs := make([]error, len(streams))
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = writeChunked(in.speakers[i], streams[i])
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return 0, 0, e
		}
	}
	if err := in.waitInStep(); err != nil {
		res.fail(1, "churn repetition never drained")
	}
	wall, cpu = w.close()
	return wall, cpu, nil
}
