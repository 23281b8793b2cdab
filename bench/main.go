// Command bench is the repository's benchmark: five workloads driven
// through a real server.Server over in-memory pipes, each reporting the
// same end-to-end metrics (untraced) or the per-layer ledger (traced),
// with the mux's output checked against a model of what it should have
// delivered. BENCHMARK.json at the repository root names the workloads,
// metrics and bounds; README.md in this directory explains them.
//
//	bash bench/run.sh --workload churn_smallupdate --seed 7 --seconds 20 --trace 0
//	bash bench/run.sh                      # all five, default seed
//	bash bench/run.sh --trace 1            # all five, per-layer ledger + span files
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh -spread 10           # 10 seeds per workload: the acceptance check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// params is what one workload run is given.
type params struct {
	seed    int64
	seconds float64
	trace   bool
	// scale shrinks every input size. The program always runs at 1, the
	// calibrated size; only the tests set anything else (about 1/100).
	scale float64
	// outDir receives the span files of a traced run ("" = none).
	outDir string
	// fault, set only by tests, corrupts the workload's output in one
	// named way so the checker can be shown to notice.
	fault string
}

// size scales a calibrated count, never below lo.
func (p params) size(n, lo int) int {
	return max(lo, int(float64(n)*p.scale))
}

// metricSpec declares one metric: its name, unit and direction.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the end-to-end metrics. Every workload reports every
// one; README.md says what each means on each workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_us_per_delivery", "us", "lower"},
	{"heap_bytes_per_route", "B", "lower"},
	{"probe_p50_ms", "ms", "lower"},
}

// result is the outcome of one workload run.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Info carries figures that explain the metrics (sample counts,
	// sizes) without being metrics themselves.
	Info map[string]float64 `json:"info,omitempty"`
	Env  environment        `json:"env"`
}

func newResult(name string) *result {
	return &result{Workload: name, Metrics: map[string]float64{}, Info: map[string]float64{}}
}

// fail records n failed operations.
func (r *result) fail(n uint64, format string, args ...any) {
	if n == 0 {
		return
	}
	r.Failed += n
	fmt.Fprintf(os.Stderr, "bench: %s: %d failed: %s\n", r.Workload, n, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(params, *result) error
}

var workloads = []workload{
	{"fulltable_fanout", runFulltable},
	{"churn_smallupdate", runChurn},
	{"client_join", runJoin},
	{"announce_vetting", runAnnounce},
	{"dataplane_forward", runDataplane},
}

// runWorkload runs one workload and fills in the bookkeeping every
// result carries.
func runWorkload(w workload, p params) (*result, error) {
	start := time.Now()
	res := newResult(w.name)
	res.Env = captureEnv(p, start)
	if res.Env.Oversubscribed {
		return nil, fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs present: the run is oversubscribed and its end-to-end numbers would measure thread contention; refusing to report them",
			res.Env.GOMAXPROCS, res.Env.NumCPU)
	}
	if box.asTimed = p.trace; !box.asTimed {
		if err := box.init(); err != nil {
			return nil, err
		}
	}
	if err := w.run(p, res); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Env.WallClockSecs = time.Since(start).Seconds()
	res.Attempted = max(res.Attempted, 1)
	res.Correct = res.Failed == 0
	specs := endToEnd
	if p.trace {
		specs = perLayer
	}
	for _, s := range specs {
		if _, ok := res.Metrics[s.Name]; !ok {
			res.Metrics[s.Name] = 0
		}
	}
	return res, nil
}

// line is the one-object summary the driver reads from the last line of
// standard output.
func (r *result) line(specs []metricSpec) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, s := range specs {
		out.Metrics[s.Name] = mv{r.Metrics[s.Name], s.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	return string(b)
}

// print writes the human-readable report of one result.
func (r *result) print(specs []metricSpec) {
	fmt.Printf("\n== %s ==\n", r.Workload)
	e := r.Env
	fmt.Printf("env: %s gomaxprocs=%d num_cpu=%d transport=%q seed=%d seconds=%d scale=%g commit=%s wall_clock=%.1fs\n",
		e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.Transport, e.Seed, e.Seconds, e.Scale, e.Commit, e.WallClockSecs)
	share := float64(r.Failed) / float64(r.Attempted)
	fmt.Printf("checked: attempted=%d failed=%d failed_share=%g\n", r.Attempted, r.Failed, share)
	for _, s := range specs {
		fmt.Printf("  %-36s %16.6g %-6s (%s is better)\n", s.Name, r.Metrics[s.Name], s.Unit, s.Better)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  info %-31s %16.6g\n", k, r.Info[k])
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all five)")
		seed    = flag.Int64("seed", 2014, "seed for every generator")
		seconds = flag.Int("seconds", 20, "how long each workload measures (BENCHMARK.json's run_seconds)")
		trace   = flag.Int("trace", 0, "1 = traced pass: per-layer metrics and span files instead of end-to-end metrics")
		out     = flag.String("out", "", "also write the results as JSON to this file (for -compare)")
		compare = flag.Bool("compare", false, "compare two -out files against BENCHMARK.json's bounds: -compare a.json b.json")
		spread  = flag.Int("spread", 0, "run each workload this many times, each with another seed, and print every end-to-end metric's spread against its bound")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareFiles(flag.Args()))
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			names := make([]string, len(workloads))
			for i, w := range workloads {
				names[i] = w.name
			}
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
			os.Exit(2)
		}
	}
	if *spread > 0 {
		os.Exit(spreadRuns(selected, *spread, *seed, *seconds))
	}
	p := params{seed: *seed, seconds: float64(*seconds), trace: *trace == 1, scale: 1}
	if p.trace {
		p.outDir = "bench/out"
		if _, err := os.Stat("bench"); err != nil {
			p.outDir = "out" // run from inside bench/
		}
	}
	specs := endToEnd
	if p.trace {
		specs = perLayer
	}
	var results []*result
	start := time.Now()
	for _, w := range selected {
		res, err := runWorkload(w, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		res.print(specs)
		results = append(results, res)
	}
	fmt.Printf("\nwall clock %.1fs\n", time.Since(start).Seconds())
	if *out != "" {
		b, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	// The driver reads the last line; with several workloads it is the
	// last workload's.
	fmt.Println(results[len(results)-1].line(specs))
}
