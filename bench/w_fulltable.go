package main

// fulltable_fanout: the paper's core job. A generated Internet table is
// replayed at full speed through one upstream (Server.ReplayUpstream)
// into a BIRD-mode mux with the compiled safety policy loaded and 16
// byte-counting sinks attached; every repetition uses a fresh mux.
// Closed loop: BGP is flow-controlled, so the rate reported is the rate
// delivered.

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"runtime"
	"time"

	"peering/bench/sink"
	"peering/internal/bgp"
	"peering/internal/mrt"
	"peering/internal/muxproto"
	"peering/internal/policy/compiled"
	"peering/internal/server"
)

const (
	fanoutSinks = 16
	// fulltablePrefixes is the table size. The calibrated size is a
	// quarter of internet.FullTableSpec: the whole 1.05M-prefix table
	// takes ~6 s per repetition on the 2-core reference box, which
	// leaves no room for the repetitions a steady median needs inside
	// the benchmark's run-time budget.
	fulltablePrefixes = 262144
	policyPrefixRules = 16384
	policyROAs        = 8192
	// heapReps is how many repetitions take the (four-GC) heap reading.
	heapReps = 2
)

// smallTrack is the tracked range of workloads that only probe in it.
var smallTrack = sink.Range{Base: 10 << 24, N: 4096}

// fulltableInputs is what set-up produces.
type fulltableInputs struct {
	tab   *table
	rules *compiled.RuleSet
	model *sink.Table
	rig   *rig // first mux, brought up and ready for the first timed byte
}

func buildFulltable(p params) (*fulltableInputs, error) {
	tabs, err := genTables(p.seed, p.size(fulltablePrefixes, 2000), 1)
	if err != nil {
		return nil, err
	}
	in := &fulltableInputs{tab: tabs[0]}
	in.rules = genPolicy(in.tab, policyPrefixRules, policyROAs)
	in.model = in.tab.model(smallTrack)
	switch p.fault {
	case "drop":
		// As if the mux lost a route: the model holds one the trace
		// never carries.
		in.model.AnnouncePrefix(netip.MustParsePrefix("9.9.9.0/24"), 1)
	case "duplicate":
		// The first UPDATE is replayed a second time; the mux relays the
		// re-announcement, so every sink receives those routes twice.
		n := 12 + int(binary.BigEndian.Uint32(in.tab.trace[8:12]))
		in.tab.trace = append(in.tab.trace, in.tab.trace[:n]...)
	}
	in.rig, err = fanoutRig(in)
	return in, err
}

// fanoutRig brings up a BIRD-mode mux with the policy loaded, one
// upstream and the sinks.
func fanoutRig(in *fulltableInputs) (*rig, error) {
	r := newRig(server.Config{Mode: muxproto.ModeBIRD, Policy: in.rules}, smallTrack)
	if _, err := r.addUpstream(1, in.tab.peerAS); err != nil {
		return nil, err
	}
	sinks, err := r.attach(fanoutSinks)
	if err != nil {
		return nil, err
	}
	return r, r.waitEstablished(sinks)
}

// fanoutRep is one measured replay.
type fanoutRep struct {
	converge, ingest, cpu float64
	failed                uint64
	sess                  *bgp.Session
}

// replayInto replays the trace into r's upstream and waits until every
// sink holds the model table.
func replayInto(r *rig, in *fulltableInputs) (*fanoutRep, error) {
	rep := &fanoutRep{}
	up := r.ups[0]
	want := in.model.Counts().Announced
	w := openWindow()
	stats, sess, err := r.srv.ReplayUpstream(up, mrt.NewReader(bytes.NewReader(in.tab.trace)), mrt.ReplayConfig{})
	if err != nil {
		return nil, err
	}
	rep.sess = sess
	rep.failed += absDiff(uint64(stats.Routes), uint64(len(in.tab.routes))) // the replayer sent what was generated
	if err := waitUntil(time.Millisecond, func() bool { return up.RoutesIn() >= int(want) }); err != nil {
		rep.failed++
	}
	rep.ingest = time.Since(w.start).Seconds()
	if err := waitUntil(time.Millisecond, func() bool { return allHold(r.sinks, 1, want) }); err != nil {
		rep.failed++
	}
	rep.converge, rep.cpu = w.close()
	return rep, nil
}

func runFulltable(p params, res *result) error {
	if p.trace {
		return traceFulltable(p, res)
	}
	in, setup, err := medianSetup(p,
		func() (*fulltableInputs, error) { return buildFulltable(p) },
		func(in *fulltableInputs) { in.rig.close() })
	if err != nil {
		return err
	}
	res.Metrics["setup_s"] = setup
	accepted := float64(in.tab.accepted())
	res.Info["prefixes"] = float64(len(in.tab.routes))
	res.Info["updates"] = float64(len(in.tab.msgs))
	res.Info["policy_rejected"] = float64(len(in.tab.routes)) - accepted
	res.Info["sinks"] = fanoutSinks
	res.Info["policy_prefix_rules"] = float64(len(in.rules.Prefixes))
	res.Info["policy_roas"] = float64(len(in.rules.Origins))

	var heap []float64
	var lat latencies
	var reps series
	for rep := 0; reps.more(p, 3); rep++ {
		r := in.rig
		if rep > 0 {
			// Every repetition starts from the same heap: the inputs and
			// nothing else. Left alone, the collector's pacing would
			// depend on how much of the previous mux was still garbage.
			runtime.GC()
			if r, err = fanoutRig(in); err != nil {
				return err
			}
		}
		m, err := replayInto(r, in)
		if err != nil {
			r.close()
			return err
		}
		res.Attempted += uint64(accepted) * fanoutSinks
		res.fail(m.failed, "table never converged")
		res.fail(checkTables(r.sinks, map[uint32]*sink.Table{1: in.model}), "sink tables differ from the model")
		res.fail(checkPolicyCounters(r, len(in.tab.routes), int(accepted)), "policy verdict counters differ from the injected rejects")
		reps.add(accepted, accepted*fanoutSinks, m.converge, m.cpu)

		// Latency of a lone update through the loaded mux.
		gen, err := newChurn(p.seed+int64(rep), smallTrack, in.tab.peerAS, netip.AddrFrom4([4]byte{10, 0, 1, 1}), in.model)
		if err != nil {
			return err
		}
		probe := &routeProbe{rig: r, id: 1, gen: gen, send: m.sess.Send, sinks: r.sinks}
		if p.fault == "" { // a seeded fault leaves sinks and model apart: no probe could complete
			lat.probeFor(probeShare(m.converge), func() (time.Duration, bool) { return probe.one(res) })
		}
		// Withdraw what the probes left behind so the next repetition's
		// model starts from the bare table again.
		resetTracked(in.model, smallTrack)
		teardown := func() {
			m.sess.Close()
			r.close()
			r, in.rig, m, probe = nil, nil, nil, nil
		}
		if len(heap) < heapReps {
			heap = append(heap, float64(releasedBy(teardown))/accepted)
		} else {
			teardown()
		}
	}
	reps.report(res)
	res.Metrics["heap_bytes_per_route"] = median(heap)
	lat.report(res)
	return nil
}

// resetTracked empties the model's tracked range.
func resetTracked(m *sink.Table, rng sink.Range) {
	for i := 0; i < rng.N; i++ {
		if _, present := m.Slot(i); present {
			m.WithdrawPrefix(rng.Prefix(i))
		}
	}
}

// checkPolicyCounters compares the mux's verdict counters with the
// rejects the generator injected; every route gets exactly one verdict.
func checkPolicyCounters(r *rig, routes, accepted int) uint64 {
	st := r.srv.Stats()
	return absDiff(st.PolicyRejected, uint64(routes-accepted)) + absDiff(st.PolicyAccepted+st.PolicyRejected, uint64(routes))
}
