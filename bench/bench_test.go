package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// The tests time milliseconds of work at a hundredth of the calibrated
// sizes; one slice per reading of the box's speed is plenty.
func init() { refSlices = 1 }

// smoke returns the parameters of a smoke run: about a hundredth of the
// calibrated sizes (less under the race detector) and a tenth of a
// second of measurement.
func smoke(trace bool) params {
	p := params{seed: 7, seconds: 0.1, scale: 0.01, trace: trace}
	if raceEnabled {
		p.scale, p.seconds = 0.004, 0.05
	}
	return p
}

// TestSmoke runs all five workloads small, untraced and traced, and
// checks that nothing fails and every declared metric is reported.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		res, err := runWorkload(w, smoke(false))
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || !res.Correct {
			t.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, v)
			}
			if m.Unit == "" {
				t.Errorf("metric %s has no unit", m.Name)
			}
		}
	}
	t.Logf("untraced smoke: %v", time.Since(start))
	for _, w := range workloads {
		p := smoke(true)
		p.outDir = t.TempDir()
		res, err := runWorkload(w, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Errorf("%s traced: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s traced: per-layer metric %s missing", w.name, m.Name)
			}
			if m.Unit == "" {
				t.Errorf("metric %s has no unit", m.Name)
			}
		}
		if _, err := os.Stat(p.outDir + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s traced: no span file: %v", w.name, err)
		}
		if res.Metrics["runtime.goroutines_leaked"] != 0 {
			t.Errorf("%s traced: %v goroutines outlived the mux", w.name, res.Metrics["runtime.goroutines_leaked"])
		}
	}
}

// TestPathProvenByCounters checks that each workload exercises the path
// it was built for, as the mux's own counters report it.
func TestPathProvenByCounters(t *testing.T) {
	if raceEnabled {
		t.Skip("the frame threshold needs more routes per batch than the race sizing sends")
	}
	p := smoke(true)
	p.scale = 0.05
	run := func(name string) *result {
		for _, w := range workloads {
			if w.name == name {
				res, err := runWorkload(w, p)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
		}
		t.Fatalf("no workload %s", name)
		return nil
	}
	if r := run("fulltable_fanout").Metrics["server.frames_shared_ratio"]; r < 0.9 {
		t.Errorf("fulltable_fanout: shared-frame ratio %v, want ≥ 0.9 (the encode-once path)", r)
	}
	// A session read that happens to put 32 operations into one shard
	// still makes a frame, so "no frames" means next to none beside the
	// UPDATEs the per-op queue sent.
	churn := run("churn_smallupdate")
	if frames, updates := churn.Metrics["server.frames_total"], churn.Metrics["server.updates_to_clients"]; frames > updates/100 {
		t.Errorf("churn_smallupdate: %v frames beside %v UPDATEs, want under 1%% (the per-op queue path)", frames, updates)
	}
	if n := churn.Info["probe_phase_batched_ops"]; n != 0 {
		t.Errorf("churn_smallupdate: %v batched ingest operations during probes, want none (one UPDATE in flight)", n)
	}
}

// TestCheckerCatchesFaults seeds one fault at a time and requires the
// checker to count failed operations.
func TestCheckerCatchesFaults(t *testing.T) {
	defer func(d time.Duration) { waitLimit = d }(waitLimit)
	waitLimit = 500 * time.Millisecond
	for _, c := range []struct{ workload, fault string }{
		{"fulltable_fanout", "drop"},
		{"fulltable_fanout", "duplicate"},
		{"dataplane_forward", "spoof"},
	} {
		for _, w := range workloads {
			if w.name != c.workload {
				continue
			}
			p := smoke(false)
			p.fault = c.fault
			res, err := runWorkload(w, p)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.workload, c.fault, err)
			}
			if res.Failed == 0 || res.Correct {
				t.Errorf("%s with fault %q: checker reported no failure", c.workload, c.fault)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not reachable from here:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, program says %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the program has %d", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, program says %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd)
	same("per-layer", spec.PerLayer, perLayer)
}

// TestBaseline checks the committed reference results: baseline.json
// (end-to-end) and baseline_trace.json (per-layer) are -out files of the
// calibrated configuration, carrying seed, sizes and the latest numbers
// that BENCHMARK.json's fixed set of keys has no room for.
func TestBaseline(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not reachable from here:", err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for file, specs := range map[string][]metricSpec{"baseline.json": endToEnd, "baseline_trace.json": perLayer} {
		got, err := readResults(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workloads {
			r := got[w.name]
			if r == nil {
				t.Errorf("%s: no result for %s", file, w.name)
				continue
			}
			if !r.Correct || r.Env.Scale != 1 || r.Env.Seconds != spec.RunSeconds || r.Env.Oversubscribed {
				t.Errorf("%s: %s is not a correct run of the calibrated configuration: correct=%v env=%+v", file, w.name, r.Correct, r.Env)
			}
			// The traced pass builds the same inputs; the untraced run is
			// the one that records their sizes.
			if file == "baseline.json" && len(r.Info) == 0 {
				t.Errorf("%s: %s records no sizes", file, w.name)
			}
			for _, m := range specs {
				v, ok := r.Metrics[m.Name]
				if !ok || (file == "baseline.json" && v <= 0) {
					t.Errorf("%s: %s: metric %s = %v", file, w.name, m.Name, v)
				}
			}
		}
	}
}

// TestCompare checks the regression rule of -compare, and that it
// refuses pairs it cannot compare instead of passing them.
func TestCompare(t *testing.T) {
	spec := &benchmarkSpec{EndToEnd: []boundedMetric{
		{metricSpec{"ops_per_s", "1/s", "higher"}, 0.10},
		{metricSpec{"probe_p50_ms", "ms", "lower"}, 0.10},
	}}
	mk := func(ops, p50 float64, edit ...func(*result)) map[string]*result {
		r := newResult("fulltable_fanout")
		r.Correct, r.Attempted = true, 1
		r.Env.Seconds, r.Env.Scale, r.Env.GOMAXPROCS = 20, 1, 2
		r.Metrics["ops_per_s"], r.Metrics["probe_p50_ms"] = ops, p50
		for _, e := range edit {
			e(r)
		}
		return map[string]*result{r.Workload: r}
	}
	for _, c := range []struct {
		name string
		a, b map[string]*result
		want int
	}{
		{"within bounds", mk(100, 1), mk(95, 1.05), 0},
		{"throughput 15% worse", mk(100, 1), mk(85, 1), 1},
		{"latency 20% worse", mk(100, 1), mk(100, 1.2), 1},
		{"better on both", mk(100, 1), mk(130, 0.5), 0},
		{"b incorrect", mk(100, 1), mk(100, 1, func(r *result) { r.Correct, r.Failed = false, 3 }), 1},
		{"a incorrect", mk(100, 1, func(r *result) { r.Correct, r.Failed = false, 3 }), mk(100, 1), 2},
		{"workload only in a", mk(100, 1), map[string]*result{}, 2},
		{"workload only in b", map[string]*result{}, mk(100, 1), 2},
		{"nothing in either", map[string]*result{}, map[string]*result{}, 2},
		{"metric missing from b", mk(100, 1), mk(100, 1, func(r *result) { delete(r.Metrics, "probe_p50_ms") }), 2},
		{"metric zero in a", mk(0, 1), mk(100, 1), 2},
		{"other run length", mk(100, 1), mk(100, 1, func(r *result) { r.Env.Seconds = 15 }), 2},
		{"other scale", mk(100, 1), mk(100, 1, func(r *result) { r.Env.Scale = 0.5 }), 2},
		{"other gomaxprocs", mk(100, 1), mk(100, 1, func(r *result) { r.Env.GOMAXPROCS = 4 }), 2},
		{"breach and not comparable", mk(100, 1), mk(50, 1, func(r *result) { r.Env.Seconds = 15 }), 2},
	} {
		if code := compareResults(spec, c.a, c.b); code != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, code, c.want)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4),
// which the acceptance driver uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{2, 4, 4, 5, 7}, [3]float64{3, 4, 6}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}
