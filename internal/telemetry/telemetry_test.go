package telemetry

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func encode(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestEncodeExactOutput locks down the Prometheus text exposition byte
// for byte: HELP/TYPE headers, family ordering by name, series ordering
// by label values, and integer vs float rendering.
func TestEncodeExactOutput(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("peering_test_events_total", "Events seen.")
	c.Add(42)
	g := r.Gauge("peering_test_depth", "Current depth.")
	g.Set(1.5)
	v := r.CounterVec("peering_test_msgs_total", "Messages by type.", "type")
	v.With("update").Add(7)
	v.With("keepalive").Inc()

	want := strings.Join([]string{
		`# HELP peering_test_depth Current depth.`,
		`# TYPE peering_test_depth gauge`,
		`peering_test_depth 1.5`,
		`# HELP peering_test_events_total Events seen.`,
		`# TYPE peering_test_events_total counter`,
		`peering_test_events_total 42`,
		`# HELP peering_test_msgs_total Messages by type.`,
		`# TYPE peering_test_msgs_total counter`,
		`peering_test_msgs_total{type="keepalive"} 1`,
		`peering_test_msgs_total{type="update"} 7`,
	}, "\n") + "\n"
	if got := encode(t, r); got != want {
		t.Fatalf("encoding mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestEncodeLabelEscaping covers the three escapes the text format
// requires in label values (backslash, quote, newline) and the
// backslash/newline escapes in HELP text.
func TestEncodeLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("peering_test_sessions", "State per session\nsecond line \\ here.", "session")
	v.With(`up1 "primary" \ams` + "\n").Set(3)

	want := strings.Join([]string{
		`# HELP peering_test_sessions State per session\nsecond line \\ here.`,
		`# TYPE peering_test_sessions gauge`,
		`peering_test_sessions{session="up1 \"primary\" \\ams\n"} 3`,
	}, "\n") + "\n"
	if got := encode(t, r); got != want {
		t.Fatalf("escaping mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestHistogramCumulativeBuckets checks le-bucket assignment (upper
// bounds are inclusive), cumulative encoding, the implicit +Inf bucket,
// and _sum/_count agreement.
func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("peering_test_latency_seconds", "Latency.", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.1, 0.3, 0.7, 2.5} {
		h.Observe(v)
	}

	want := strings.Join([]string{
		`# HELP peering_test_latency_seconds Latency.`,
		`# TYPE peering_test_latency_seconds histogram`,
		`peering_test_latency_seconds_bucket{le="0.1"} 2`,
		`peering_test_latency_seconds_bucket{le="0.5"} 3`,
		`peering_test_latency_seconds_bucket{le="1"} 4`,
		`peering_test_latency_seconds_bucket{le="+Inf"} 5`,
		`peering_test_latency_seconds_sum 3.65`,
		`peering_test_latency_seconds_count 5`,
	}, "\n") + "\n"
	if got := encode(t, r); got != want {
		t.Fatalf("histogram mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	bounds, cum := h.Buckets()
	if len(bounds) != 4 || !math.IsInf(bounds[3], +1) {
		t.Fatalf("bounds = %v, want 3 finite + +Inf", bounds)
	}
	if cum[3] != 5 || h.Count() != 5 {
		t.Fatalf("cumulative = %v count = %d, want 5", cum, h.Count())
	}
}

// TestHistogramVecSharedLayout: children share buckets; the le label
// comes after the vec labels.
func TestHistogramVecSharedLayout(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("peering_test_sizes", "Sizes.", []float64{1, 8}, "client")
	v.With("exp1").Observe(1)
	v.With("exp1").Observe(100)
	got := encode(t, r)
	for _, line := range []string{
		`peering_test_sizes_bucket{client="exp1",le="1"} 1`,
		`peering_test_sizes_bucket{client="exp1",le="8"} 1`,
		`peering_test_sizes_bucket{client="exp1",le="+Inf"} 2`,
		`peering_test_sizes_sum{client="exp1"} 101`,
		`peering_test_sizes_count{client="exp1"} 2`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Fatalf("output missing %q:\n%s", line, got)
		}
	}
}

// TestHistogramTallyMatchesObserve: values observed into tallies and
// merged — by several goroutines at once, each merging many times —
// leave the histogram with the buckets, sum and count that observing
// them directly gives. The values are integers, as the hot path's are,
// so the sum does not depend on the order the merges add it in.
func TestHistogramTallyMatchesObserve(t *testing.T) {
	bounds := []float64{1, 2, 4, 8, 16, 32}
	direct, tallied := NewHistogram(bounds), NewHistogram(bounds)
	const workers, passes, perPass = 4, 200, 7
	value := func(w, p, k int) float64 { return float64((w*31 + p*7 + k*k) % 50) }
	for w := 0; w < workers; w++ {
		for p := 0; p < passes; p++ {
			for k := 0; k < perPass; k++ {
				direct.Observe(value(w, p, k))
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tl := tallied.Tally()
			for p := 0; p < passes; p++ {
				for k := 0; k < perPass; k++ {
					tl.Observe(value(w, p, k))
				}
				tl.Merge()
				tl.Merge() // an empty merge adds nothing
			}
		}()
	}
	wg.Wait()
	_, want := direct.Buckets()
	_, got := tallied.Buckets()
	if fmt.Sprint(got) != fmt.Sprint(want) || tallied.Sum() != direct.Sum() || tallied.Count() != direct.Count() {
		t.Fatalf("tallied: buckets %v sum %v count %d; observed: buckets %v sum %v count %d",
			got, tallied.Sum(), tallied.Count(), want, direct.Sum(), direct.Count())
	}
	if tallied.Count() != workers*passes*perPass {
		t.Fatalf("count %d, want %d", tallied.Count(), workers*passes*perPass)
	}
}

// TestGaugeFuncAndVecFunc: scrape-time metrics are sampled per encode
// and sorted by label values regardless of emit order.
func TestGaugeFuncAndVecFunc(t *testing.T) {
	r := NewRegistry()
	n := 1.0
	r.GaugeFunc("peering_test_pool", "Pool size.", func() float64 { return n })
	r.GaugeVecFunc("peering_test_routes", "Routes per peer.", []string{"peer"},
		func(emit func(v float64, labelValues ...string)) {
			emit(10, "zebra")
			emit(20, "alpha")
		})

	got := encode(t, r)
	wantOrder := strings.Join([]string{
		`peering_test_routes{peer="alpha"} 20`,
		`peering_test_routes{peer="zebra"} 10`,
	}, "\n")
	if !strings.Contains(got, wantOrder) {
		t.Fatalf("vec func samples missing or unsorted:\n%s", got)
	}
	if !strings.Contains(got, "peering_test_pool 1\n") {
		t.Fatalf("gauge func sample missing:\n%s", got)
	}
	n = 2
	if got := encode(t, r); !strings.Contains(got, "peering_test_pool 2\n") {
		t.Fatalf("gauge func not re-sampled:\n%s", got)
	}
}

// TestGaugeMax: the high-water helper only moves up.
func TestGaugeMax(t *testing.T) {
	var g Gauge
	g.Max(5)
	g.Max(3)
	if g.Value() != 5 {
		t.Fatalf("Max regressed the gauge: %v", g.Value())
	}
	g.Max(9)
	if g.Value() != 9 {
		t.Fatalf("Max did not raise: %v", g.Value())
	}
}

// TestRegistryPanics: duplicate and malformed names are programming
// errors caught at registration.
func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("peering_dup_total", "x")
	mustPanic("duplicate", func() { r.Gauge("peering_dup_total", "x") })
	mustPanic("bad name", func() { r.Counter("9starts-with-digit", "x") })
	mustPanic("bad label", func() { r.CounterVec("peering_ok_total", "x", "bad-label") })
	mustPanic("descending buckets", func() { r.Histogram("peering_h", "x", []float64{2, 1}) })
	mustPanic("label arity", func() {
		v := r.CounterVec("peering_arity_total", "x", "a", "b")
		v.With("only-one")
	})
}

// TestVecWith: a one-label family resolves a child by a plain map lookup
// on the value — nothing allocated, where every With used to build a
// quoted key — and a family with more labels still tells apart value
// lists that a naive join would confuse.
func TestVecWith(t *testing.T) {
	r := NewRegistry()
	one := r.CounterVec("peering_one_total", "x", "kind")
	one.With("flap")
	if allocs := testing.AllocsPerRun(100, func() { one.With("flap").Inc() }); allocs != 0 {
		t.Errorf("With on a one-label family allocates %.0f times", allocs)
	}
	if one.With("flap").Value() != 101 || one.With(`"flap",`).Value() != 0 {
		t.Error("one-label children are confused")
	}
	two := r.CounterVec("peering_two_total", "x", "a", "b")
	if two.With(`x","y`, "z") == two.With("x", `y","z`) {
		t.Error("two value lists share a child")
	}
}

// TestConcurrentRegistryAccess hammers every instrument kind from many
// goroutines while scraping concurrently; run under -race this is the
// registry's thread-safety proof.
func TestConcurrentRegistryAccess(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("peering_conc_events_total", "x")
	g := r.Gauge("peering_conc_depth", "x")
	cv := r.CounterVec("peering_conc_msgs_total", "x", "type")
	h := r.Histogram("peering_conc_lat_seconds", "x", []float64{0.01, 0.1, 1})
	hv := r.HistogramVec("peering_conc_sizes", "x", []float64{1, 10}, "client")
	r.GaugeVecFunc("peering_conc_routes", "x", []string{"peer"},
		func(emit func(v float64, labelValues ...string)) {
			emit(float64(c.Value()), "p1")
		})

	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	types := []string{"update", "keepalive", "open", "notification"}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				g.Max(float64(i))
				cv.With(types[i%len(types)]).Inc()
				h.Observe(float64(i%100) / 50)
				hv.With(types[w%len(types)]).Observe(float64(i % 20))
			}
		}(w)
	}
	// Scrape concurrently with the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if _, err := r.WriteTo(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	if got := c.Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
	var total uint64
	for _, ty := range types {
		total += cv.With(ty).Value()
	}
	if total != workers*iters {
		t.Fatalf("vec total = %d, want %d", total, workers*iters)
	}
}

// TestHandler: the HTTP endpoint sets the exposition content type and
// serves the encoded registry.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("peering_http_hits_total", "x").Add(3)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type = %q, want %q", ct, ContentType)
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "peering_http_hits_total 3") {
		t.Fatalf("body = %q", buf[:n])
	}
}
