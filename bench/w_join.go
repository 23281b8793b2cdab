package main

// client_join: the fan-out layer used the other way. A mux already
// holds the table and has no clients; sinks then attach in waves of
// four, and each wave is timed from the first attach until its last
// joiner holds the whole table. No ingest and no policy verdicts run —
// the work is the replay walk over the sharded Adj-RIB-In, the private
// snapshot frames encoded per joiner, and the tunnel.

import (
	"fmt"
	"runtime"
	"time"

	"peering/bench/sink"
	"peering/internal/muxproto"
	"peering/internal/server"
)

const (
	joinWaves   = 4
	joinPerWave = 4
)

// joinInputs is what set-up produces: a loaded, client-less mux.
type joinInputs struct {
	tab     *table
	model   *sink.Table
	rig     *rig
	speaker *sink.Speaker
}

// close shuts the mux down first: closing the upstream's pipe under a
// live server would read as a session failure and arm a two-minute
// stale-route timer that keeps the whole table reachable.
func (in *joinInputs) close() {
	in.rig.close()
	in.speaker.Close()
	in.speaker, in.rig = nil, nil
}

func buildJoin(p params) (*joinInputs, error) {
	tabs, err := genTables(p.seed, p.size(fulltablePrefixes, 2000), 1)
	if err != nil {
		return nil, err
	}
	in := &joinInputs{tab: tabs[0]}
	in.model = in.tab.model(smallTrack)
	return in, in.load()
}

// load brings up a fresh mux and fills its Adj-RIB-In.
func (in *joinInputs) load() error {
	in.rig = newRig(server.Config{Mode: muxproto.ModeBIRD}, smallTrack)
	up, err := in.rig.addUpstream(1, in.tab.peerAS)
	if err != nil {
		return err
	}
	if in.speaker, err = in.rig.speak(up); err != nil {
		return err
	}
	if err := writeChunked(in.speaker, in.tab.raw); err != nil {
		return err
	}
	if err := waitUntil(time.Millisecond, func() bool { return up.RoutesIn() >= len(in.tab.routes) }); err != nil {
		return fmt.Errorf("loading the table: %w", err)
	}
	return nil
}

// wave attaches n sinks at once and waits until each holds the table.
func (in *joinInputs) wave(n int, res *result) (wall, cpu float64, err error) {
	want := in.model.Counts().Announced
	res.Attempted += uint64(n) * want
	w := openWindow()
	joined, err := in.rig.attach(n)
	if err != nil {
		return 0, 0, err
	}
	if err := waitUntil(time.Millisecond, func() bool { return allHold(joined, 1, want) }); err != nil {
		res.fail(1, "joiners never synced")
	}
	wall, cpu = w.close()
	return wall, cpu, nil
}

func runJoin(p params, res *result) error {
	if p.trace {
		return traceJoin(p, res)
	}
	in, setup, err := medianSetup(p, func() (*joinInputs, error) { return buildJoin(p) }, (*joinInputs).close)
	if err != nil {
		return err
	}
	res.Metrics["setup_s"] = setup
	table := float64(len(in.tab.routes))
	res.Info["prefixes"] = table
	res.Info["joiners_per_wave"] = joinPerWave

	var heap []float64
	var lat latencies
	var reps series
	for cycle := 0; reps.more(p, 1); cycle++ {
		if cycle > 0 {
			runtime.GC() // same starting heap for every cycle; see runFulltable
			if err := in.load(); err != nil {
				return err
			}
		}
		gen, err := newChurn(p.seed+int64(cycle), smallTrack, in.tab.peerAS, in.rig.ups[0].Config().PeerAddr, in.model)
		if err != nil {
			return err
		}
		cycleWall := 0.0
		for w := 0; w < joinWaves; w++ {
			wall, cpu, err := in.wave(joinPerWave, res)
			if err != nil {
				in.close()
				return err
			}
			reps.add(table, table*joinPerWave, wall, cpu)
			cycleWall += wall
		}
		// Latency of a live update to clients that all joined late. Only
		// with every wave attached: a probe waits for each attached sink,
		// so its latency grows with their number, and a median over
		// probes taken at 4, 8, 12 and 16 sinks would sit between two of
		// those levels and jump from one to the other between runs.
		probe := &routeProbe{rig: in.rig, id: 1, gen: gen, send: speakerSend(in.speaker), sinks: in.rig.sinks}
		lat.probeFor(probeShare(cycleWall), func() (time.Duration, bool) { return probe.one(res) })
		res.fail(checkTables(in.rig.sinks, map[uint32]*sink.Table{1: in.model}), "sink tables differ from the model")
		st := in.rig.srv.Stats()
		res.fail(st.PolicyAccepted+st.PolicyRejected, "policy verdicts ran on a mux with no policy")
		resetTracked(in.model, smallTrack)
		if len(heap) < heapReps {
			heap = append(heap, float64(releasedBy(in.close))/table)
		} else {
			in.close()
		}
	}
	reps.report(res)
	res.Metrics["heap_bytes_per_route"] = median(heap)
	lat.report(res)
	return nil
}
