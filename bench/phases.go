package main

// Phases the workloads are assembled from: repeated set-up, the timed
// window with its CPU reading, and the single-in-flight latency probe.

import (
	"sort"
	"time"

	"peering/bench/sink"
	"peering/internal/wire"
)

// A workload's set-up is executed at least setupRuns times, and again
// until a twentieth of --seconds has been spent on it (at most setupMax
// times); the reported setup_s is the median, so one slow page-fault
// storm or GC cycle does not decide it, and a set-up of a few
// milliseconds gets the larger sample its relative jitter needs.
const (
	setupRuns  = 3
	setupMax   = 15
	setupShare = 0.05
)

// tracedProbeShare is the share of --seconds the traced pass probes for.
const tracedProbeShare = 0.05

// span is the given share of --seconds.
func (p params) span(share float64) time.Duration {
	return time.Duration(share * p.seconds * float64(time.Second))
}

// Share of --seconds spent in the rate phase; the rest goes to probes.
const rateShare = 0.7

// medianSetup runs build repeatedly, discarding (via discard) all but
// the last product, and returns that product with the median duration,
// each duration in reference seconds (speed.go).
func medianSetup[T any](p params, build func() (T, error), discard func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	begun := time.Now()
	for i := 0; i < setupRuns || (i < setupMax && time.Since(begun) < p.span(setupShare)); i++ {
		if i > 0 {
			discard(last)
		}
		slow := slowness()
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		took := time.Since(start).Seconds()
		times = append(times, took/((slow+slowness())/2))
		last = v
	}
	return last, median(times), nil
}

// window measures one timed section: wall clock and process CPU, with
// the box's speed read just before the clock starts and just after it
// stops.
type window struct {
	start     time.Time
	cpu, slow float64
}

func openWindow() window {
	slow := slowness()
	return window{start: time.Now(), cpu: cpuSeconds(), slow: slow}
}

// close returns the elapsed wall-clock and CPU time in reference
// seconds: the seconds that passed, divided by the mean of the two
// readings of the box's slowness.
func (w window) close() (wall, cpu float64) {
	wall, cpu = time.Since(w.start).Seconds(), cpuSeconds()-w.cpu
	box.applied = (w.slow + slowness()) / 2
	return wall / box.applied, cpu / box.applied
}

// passed turns the reference seconds the last window measured back into
// the seconds that passed, for sharing out the run's time: a run on a
// slow box must not take longer for it.
func passed(ref float64) float64 { return ref * box.applied }

// series collects one figure per repetition of a workload's timed part.
// The reference box is a small shared VM whose speed drifts by a fifth
// over seconds to minutes, so every workload is cut into many short
// repetitions that each drain completely and carry their own reading of
// the box's speed, interleaved with its latency probes: each metric then
// samples the whole run rather than one stretch of it, and the median
// over repetitions sheds what the readings did not catch.
type series struct {
	rate, cpu []float64
	// asTimed is the rate per second as it passed, for the report.
	asTimed []float64
	// measured is the time that passed inside repetitions.
	measured float64
}

// add records a repetition: ops operations reached every destination
// (deliveries in all) in wall reference seconds, costing cpu reference
// process-seconds (both from window.close).
func (s *series) add(ops, deliveries, wall, cpu float64) {
	s.rate = append(s.rate, ops/wall)
	s.cpu = append(s.cpu, cpu*1e6/deliveries)
	s.asTimed = append(s.asTimed, ops/passed(wall))
	s.measured += passed(wall)
}

// more reports whether the timed part wants another repetition: at
// least least of them, then until the rate phase's share of --seconds is
// used up. A run with a seeded fault makes one: the checker either
// notices it there or not at all.
func (s *series) more(p params, least int) bool {
	if p.fault != "" {
		return len(s.rate) == 0
	}
	return len(s.rate) < least || s.measured < rateShare*p.seconds
}

// report stores the rate metrics.
func (s *series) report(res *result) {
	res.Metrics["ops_per_s"] = median(s.rate)
	res.Metrics["cpu_us_per_delivery"] = median(s.cpu)
	res.Info["repetitions"] = float64(len(s.rate))
	res.Info["ops_per_s_as_timed"] = median(s.asTimed)
	reportBox(res)
}

// probeShare is how long to probe after a repetition that took wall
// reference seconds, so that probes get 1-rateShare of the run.
func probeShare(wall float64) time.Duration {
	return time.Duration((1 - rateShare) / rateShare * passed(wall) * float64(time.Second))
}

// probeBlock is how many consecutive probes form one block. The probe
// metric is the median over blocks of each block's own median, for the
// reason given at series: a slow spell of the box moves the blocks it
// covers, not the median over all blocks.
const probeBlock = 100

// probeMaxBlocks caps one probing spell: microsecond-scale probes would
// otherwise run through their supply of fresh prefixes.
const probeMaxBlocks = 10

// latencies accumulates probe samples in reference milliseconds, in send
// order.
type latencies struct{ ms []float64 }

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d.Nanoseconds())/1e6) }

// probeFor calls one (a single operation, timed from its own start to
// completion) for about d: at least one block of probes and at most
// probeMaxBlocks. one returning false ends the phase early (the mux is
// stuck: do not wait a minute per probe). The box's speed is read before
// the first probe and after the last, and the spell's samples are
// divided by the mean of the two.
func (l *latencies) probeFor(d time.Duration, one func() (time.Duration, bool)) {
	slow, first := slowness(), len(l.ms)
	deadline := time.Now().Add(d)
	for n := 0; n < probeBlock || (n < probeMaxBlocks*probeBlock && time.Now().Before(deadline)); n++ {
		took, ok := one()
		if !ok {
			break
		}
		l.add(took)
	}
	slow = (slow + slowness()) / 2
	for i := first; i < len(l.ms); i++ {
		l.ms[i] /= slow
	}
}

// report stores the probe metric — the median over blocks of each
// block's median — and, as information, the sample count and the upper
// percentiles over all samples (the 99th keeps a hundredth of the
// samples beyond it; the traced pass reports both as layer figures).
func (l *latencies) report(res *result) {
	var p50 []float64
	block := make([]float64, 0, probeBlock)
	for at := 0; at+probeBlock <= len(l.ms); at += probeBlock {
		block = append(block[:0], l.ms[at:at+probeBlock]...)
		sort.Float64s(block)
		p50 = append(p50, quantile(block, 0.50))
	}
	res.Metrics["probe_p50_ms"] = median(p50)
	res.Info["probe_samples"] = float64(len(l.ms))
	sort.Float64s(l.ms)
	res.Info["probe_p90_ms"] = quantile(l.ms, 0.90)
	res.Info["probe_p99_ms"] = quantile(l.ms, 0.99)
}

// routeProbe sends single-NLRI UPDATEs one at a time through one
// upstream and times each from send until every sink holds it.
type routeProbe struct {
	rig   *rig
	id    uint32 // upstream ID
	gen   *churn
	send  func(*wire.Update) error
	sinks []*sink.Sink
}

// one runs a single probe.
func (p *routeProbe) one(res *result) (time.Duration, bool) {
	upd := p.gen.op()
	want := p.gen.model.Counts()
	res.Attempted++
	start := time.Now()
	if err := p.send(upd); err != nil {
		res.fail(1, "probe send: %v", err)
		return 0, false
	}
	if err := p.rig.waitWoken(func() bool { return sinksHold(p.sinks, p.id, want) }); err != nil {
		res.fail(1, "probe never reached every sink")
		return 0, false
	}
	return time.Since(start), true
}

// speakerSend adapts a bare speaker to routeProbe.send.
func speakerSend(sp *sink.Speaker) func(*wire.Update) error {
	var buf []byte
	return func(u *wire.Update) error {
		b, err := wire.AppendMessage(buf[:0], u, as4)
		if err != nil {
			return err
		}
		buf = b
		_, err = sp.Write(b)
		return err
	}
}

// writeChunked writes b in pieces small enough that the speaker's write
// lock is released regularly.
func writeChunked(sp *sink.Speaker, b []byte) error {
	const chunk = 64 << 10
	for len(b) > 0 {
		n := min(chunk, len(b))
		if _, err := sp.Write(b[:n]); err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

// releasedBy measures the live heap that teardown releases: the heap
// before minus the heap after, so the harness's own inputs cancel out.
// teardown must close the rig and drop every reference to it. Session
// goroutines take a moment to notice their closed pipes and let go of
// the mux, so the reading is repeated until it stops falling.
func releasedBy(teardown func()) uint64 {
	before := liveHeap()
	teardown()
	after := before
	for i := 0; i < 8; i++ {
		time.Sleep(50 * time.Millisecond)
		h := liveHeap()
		settled := h >= after-after/100
		after = min(after, h)
		if settled && i > 0 {
			break
		}
	}
	return before - after
}
