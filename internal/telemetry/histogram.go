package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds (inclusive, Prometheus `le` semantics); an implicit +Inf
// bucket catches everything else. Observe is lock-free; a scrape reads
// the buckets without stopping writers, so a snapshot may be slightly
// torn between buckets — the standard Prometheus trade for a hot path
// that never blocks.
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf excluded
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    Gauge           // running sum of observed values
	count  atomic.Uint64
}

// NewHistogram returns an unregistered histogram with the given bucket
// upper bounds (ascending; +Inf implicit). Use Registry.Histogram to
// expose one on /metrics.
func NewHistogram(buckets []float64) *Histogram {
	bounds := checkBuckets(buckets)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// checkBuckets validates and copies a bucket layout.
func checkBuckets(buckets []float64) []float64 {
	bounds := append([]float64(nil), buckets...)
	if !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram buckets must be ascending")
	}
	for _, b := range bounds {
		if math.IsNaN(b) {
			panic("telemetry: NaN histogram bucket")
		}
	}
	// A trailing +Inf is implicit; drop an explicit one.
	if n := len(bounds); n > 0 && math.IsInf(bounds[n-1], +1) {
		bounds = bounds[:n-1]
	}
	return bounds
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Tally is a goroutine-private accumulator for one Histogram. Observe
// on a Tally touches no shared memory; Merge adds everything observed
// since the last Merge to the histogram, one atomic add per touched
// bucket plus the sum and the count. A loop that observes many values
// per pass (a fan-out flusher's drain) observes into its Tally and
// merges once per pass, instead of paying three contended atomics per
// value. What a scrape sees is the same, only later: values are
// visible from their Merge on, and the merged sum equals the observed
// one exactly when the values are integers (counts, as on the fan-out
// path); float sums may differ in rounding with the order of merges.
// A Tally must not be used from two goroutines at once.
type Tally struct {
	h      *Histogram
	counts []uint64
	sum    float64
	n      uint64
}

// Tally returns an empty tally that merges into h.
func (h *Histogram) Tally() *Tally {
	return &Tally{h: h, counts: make([]uint64, len(h.counts))}
}

// Observe records one value in the tally.
func (t *Tally) Observe(v float64) {
	t.counts[sort.SearchFloat64s(t.h.bounds, v)]++
	t.sum += v
	t.n++
}

// Merge adds the tally to its histogram and empties it.
func (t *Tally) Merge() {
	if t.n == 0 {
		return
	}
	for i, c := range t.counts {
		if c != 0 {
			t.h.counts[i].Add(c)
			t.counts[i] = 0
		}
	}
	t.h.sum.Add(t.sum)
	t.h.count.Add(t.n)
	t.sum, t.n = 0, 0
}

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Buckets returns the bucket upper bounds and the cumulative count at
// each (Prometheus `le` semantics), ending with the +Inf bucket equal
// to Count.
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	bounds = append(append([]float64(nil), h.bounds...), math.Inf(+1))
	cumulative = make([]uint64, len(h.counts))
	var c uint64
	for i := range h.counts {
		c += h.counts[i].Load()
		cumulative[i] = c
	}
	return bounds, cumulative
}
