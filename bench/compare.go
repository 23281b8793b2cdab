package main

// The two repeatability checks, both against the bounds BENCHMARK.json
// fixes. -compare a.json b.json: per workload × end-to-end metric, how
// much worse b reads than a. -spread N: N runs per workload, each with
// another seed, and every metric's interquartile spread — the check the
// acceptance driver makes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchmarkSpec is the part of BENCHMARK.json the checks need.
type benchmarkSpec struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
}

// boundedMetric is an end-to-end metric with its regression bound.
type boundedMetric struct {
	metricSpec
	Bound float64 `json:"bound"`
}

// findSpec reads BENCHMARK.json from the working directory or its
// parent (the benchmark may be run from bench/).
func findSpec() (*benchmarkSpec, error) {
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &spec, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found here or in the parent directory")
}

func readResults(path string) (map[string]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []*result
	if err := json.Unmarshal(b, &list); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	byName := make(map[string]*result, len(list))
	for _, r := range list {
		byName[r.Workload] = r
	}
	return byName, nil
}

// compareFiles prints one row per workload × metric and returns the
// process exit code; see compareResults.
func compareFiles(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json (files written with -out)")
		return 2
	}
	spec, err := findSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := readResults(args[0])
	if err == nil {
		var b map[string]*result
		if b, err = readResults(args[1]); err == nil {
			return compareResults(spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// compareResults returns 1 when any metric of b is worse than a's by
// more than its bound or b failed a correctness check, and 2 when the
// two cannot be compared at all: a workload in only one of them or none
// in both, a reference that itself failed its checks, runs taken with
// different seconds, scale or GOMAXPROCS (a different run length alone
// moves the medians by more than most bounds), or a metric that is
// missing or not positive. It never passes a pair it has not compared.
func compareResults(spec *benchmarkSpec, a, b map[string]*result) int {
	code, compared := 0, 0
	bad := func(format string, args ...any) {
		fmt.Printf("cannot compare: "+format+"\n", args...)
		code = 2
	}
	fmt.Printf("%-20s %-22s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		if ra == nil && rb == nil {
			continue
		}
		if ra == nil || rb == nil {
			bad("%s is in only one of the two files", w.name)
			continue
		}
		compared++
		if !ra.Correct {
			bad("%s: the reference run a failed %d of %d operations", w.name, ra.Failed, ra.Attempted)
		}
		if ea, eb := ra.Env, rb.Env; ea.Seconds != eb.Seconds || ea.Scale != eb.Scale || ea.GOMAXPROCS != eb.GOMAXPROCS {
			bad("%s: a ran with seconds=%d scale=%g gomaxprocs=%d, b with seconds=%d scale=%g gomaxprocs=%d",
				w.name, ea.Seconds, ea.Scale, ea.GOMAXPROCS, eb.Seconds, eb.Scale, eb.GOMAXPROCS)
		}
		if !rb.Correct {
			fmt.Printf("%-20s b failed %d of %d operations\n", w.name, rb.Failed, rb.Attempted)
			code = max(code, 1)
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			if va <= 0 || vb <= 0 {
				bad("%s: %s reads %g in a and %g in b; an end-to-end metric is never 0", w.name, m.Name, va, vb)
				continue
			}
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  BREACH"
				code = max(code, 1)
			}
			fmt.Printf("%-20s %-22s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", w.name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
	}
	if compared == 0 {
		bad("the files have no workload in common")
	}
	fmt.Println("The bounds only catch regressions larger than the box's own run-to-run noise (README, Steadiness);\n" +
		"a change that claims a gain shows it with alternating pairs of parent and change, not with this table.")
	return code
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns
// (the "exclusive" method the acceptance driver uses); v has at least
// two values and is sorted in place.
func quartiles(v []float64) (q1, q2, q3 float64) {
	sort.Float64s(v)
	at := func(i int) float64 {
		m := len(v) + 1
		j := min(max(i*m/4, 1), len(v)-1)
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spreadRuns runs each selected workload n times as a process of its
// own, with seeds seed, seed+1, …, and prints for every end-to-end
// metric the median and the spread, (Q3 − Q1) ÷ median, over the n
// runs. It returns 1 when a spread other than setup_s's exceeds the
// metric's bound (the driver's rule; a third of the bound is what to
// aim for), 2 when a run fails.
func spreadRuns(selected []workload, n int, seed int64, seconds int) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: -spread needs at least 2 runs to have quartiles")
		return 2
	}
	spec, err := findSpec()
	var self string
	if err == nil {
		self, err = os.Executable()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	for _, w := range selected {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			s := strconv.FormatInt(seed+int64(i), 10)
			cmd := exec.Command(self, "--workload", w.name, "--seed", s, "--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			var last struct {
				Correct bool
				Failed  uint64
				Metrics map[string]struct{ Value float64 }
			}
			if err == nil {
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				err = json.Unmarshal(lines[len(lines)-1], &last)
			}
			if err == nil && !last.Correct {
				err = fmt.Errorf("%d operations failed", last.Failed)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s, seed %s: %v\n", w.name, s, err)
				return 2
			}
			for k, m := range last.Metrics {
				values[k] = append(values[k], m.Value)
			}
		}
		fmt.Printf("%s: %d runs, seeds %d-%d, %d s each\n", w.name, n, seed, seed+int64(n)-1, seconds)
		for _, m := range spec.EndToEnd {
			v := values[m.Name]
			q1, q2, q3 := quartiles(v)
			spread := (q3 - q1) / q2
			note := ""
			if m.Name != "setup_s" && spread > m.Bound {
				note = "  BREACH"
				code = 1
			} else if m.Name != "setup_s" && spread > m.Bound/3 {
				note = "  > bound/3"
			}
			fmt.Printf("  %-22s median %12.6g  spread %6.3f  min %12.6g  max %12.6g  bound %.2f%s\n",
				m.Name, q2, spread, v[0], v[len(v)-1], m.Bound, note)
		}
	}
	return code
}
