// Package telemetry is the testbed's metrics layer: a dependency-free
// registry of atomic counters, gauges, fixed-bucket histograms, and
// labeled vectors of each, with a Prometheus text-format (0.0.4)
// encoder behind GET /metrics.
//
// PEERING staff operate muxes holding hundreds of live BGP sessions;
// they must notice flaps, leaks, and slow clients before real peers do.
// Every subsystem therefore instruments itself against one shared
// Registry — bgp sessions, the server fan-out pipeline, route-flap
// dampening, RIB sizes, and the end-to-end convergence histogram — so
// a single scrape answers "is this mux healthy".
//
// Two instrument styles coexist:
//
//   - registered instruments (Counter, Gauge, Histogram, and their
//     *Vec forms) are updated at event time with atomic operations and
//     never take the registry lock on the hot path;
//   - func metrics (GaugeFunc, GaugeVecFunc) are sampled at scrape
//     time from a callback, which suits "current size" values (routes
//     per peer, queue depth per client) whose label sets churn with
//     client connections — a snapshot can never leak stale labels.
//
// The zero Counter/Gauge/Histogram values are also usable unregistered
// as plain thread-safe counters, which lets per-object state (a
// session's own UPDATE count) share the one instrumented idiom without
// polluting the scrape namespace.
//
// Naming follows the convention documented in DESIGN.md §10:
// peering_<subsystem>_<name>_<unit>, with _total on counters.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ---------------------------------------------------------------------
// Scalar instruments

// Counter is a monotonically increasing counter. The zero value is
// ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to
// use.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Max raises the gauge to v if v exceeds the current value (a
// high-water mark).
func (g *Gauge) Max(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// ---------------------------------------------------------------------
// Vectors

// vec is the generic labeled-children machinery shared by CounterVec,
// GaugeVec, and HistogramVec. Children are created on first use and
// live for the registry's lifetime.
type vec[M any] struct {
	labels []string
	newM   func() *M

	mu   sync.RWMutex
	kids map[string]*vecChild[M]
}

type vecChild[M any] struct {
	values []string
	m      *M
}

// vecKey joins label values into the children map's key. A one-label
// family — most of them — is keyed by the value itself: no builder, no
// formatting, nothing allocated. With more labels the values are
// %q-quoted so that no two value lists share a key. Every vec has a
// fixed label count, so the two forms never meet in one map.
func vecKey(values []string) string {
	if len(values) == 1 {
		return values[0]
	}
	var b strings.Builder
	for _, v := range values {
		fmt.Fprintf(&b, "%q,", v)
	}
	return b.String()
}

func (v *vec[M]) with(values []string) *M {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("telemetry: got %d label values for labels %v", len(values), v.labels))
	}
	k := vecKey(values)
	v.mu.RLock()
	c := v.kids[k]
	v.mu.RUnlock()
	if c != nil {
		return c.m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.kids[k]; c != nil {
		return c.m
	}
	c = &vecChild[M]{values: append([]string(nil), values...), m: v.newM()}
	v.kids[k] = c
	return c.m
}

// snapshot returns the children sorted by label values, for stable
// encoding.
func (v *vec[M]) snapshot() []*vecChild[M] {
	v.mu.RLock()
	out := make([]*vecChild[M], 0, len(v.kids))
	for _, c := range v.kids {
		out = append(out, c)
	}
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		return sliceLess(out[i].values, out[j].values)
	})
	return out
}

func sliceLess(a, b []string) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// CounterVec is a family of Counters keyed by label values.
type CounterVec struct {
	desc
	vec[Counter]
}

// With returns the child for the given label values, creating it on
// first use. It takes a read lock and looks the values up in a map, so
// a hot path resolves its children once, when it is set up, and keeps
// the pointers.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values) }

// GaugeVec is a family of Gauges keyed by label values.
type GaugeVec struct {
	desc
	vec[Gauge]
}

// With returns the child for the given label values, creating it on
// first use. It takes a read lock and looks the values up in a map, so
// a hot path resolves its children once, when it is set up, and keeps
// the pointers.
func (v *GaugeVec) With(values ...string) *Gauge { return v.with(values) }

// HistogramVec is a family of Histograms sharing one bucket layout,
// keyed by label values.
type HistogramVec struct {
	desc
	vec[Histogram]
}

// With returns the child for the given label values, creating it on
// first use. It takes a read lock and looks the values up in a map, so
// a hot path resolves its children once, when it is set up, and keeps
// the pointers.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values) }

// ---------------------------------------------------------------------
// Func metrics (sampled at scrape time)

// GaugeFunc reports fn() at each scrape.
type GaugeFunc struct {
	desc
	fn func() float64
}

// GaugeVecFunc reports a labeled sample set at each scrape: collect is
// called with an emit callback and produces the entire family. Because
// the sample set is rebuilt per scrape, label churn (clients connecting
// and leaving) can never leave stale series behind.
type GaugeVecFunc struct {
	desc
	labels  []string
	collect func(emit func(value float64, labelValues ...string))
}

// ---------------------------------------------------------------------
// Registry

// desc is the name/help/type triple every registered family carries.
type desc struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"
}

// Name returns the family's metric name.
func (d desc) Name() string { return d.name }

// entry is one registered metric family.
type entry struct {
	d      desc
	encode func(*encoder)
}

// Registry holds metric families and encodes them in Prometheus text
// format. All registration methods panic on invalid or duplicate names
// — registration happens once at startup, and a misnamed metric is a
// programming error, not a runtime condition.
type Registry struct {
	mu      sync.Mutex
	entries map[string]entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]entry)}
}

func (r *Registry) register(d desc, encode func(*encoder)) {
	mustValidName(d.name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[d.name]; dup {
		panic("telemetry: duplicate metric " + d.name)
	}
	r.entries[d.name] = entry{d: d, encode: encode}
}

func mustValidName(name string) {
	if !validName(name, false) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
}

func mustValidLabels(labels []string) {
	for _, l := range labels {
		if !validName(l, true) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("telemetry: invalid label name %q", l))
		}
	}
}

// validName checks the Prometheus grammar: metric names allow
// [a-zA-Z_:][a-zA-Z0-9_:]*, label names the same minus ':'.
func validName(s string, label bool) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c == ':' && !label:
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	d := desc{name: name, help: help, typ: "counter"}
	r.register(d, func(e *encoder) {
		e.header(d)
		e.sample(d.name, nil, nil, formatUint(c.Value()))
	})
	return c
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	mustValidLabels(labels)
	v := &CounterVec{
		desc: desc{name: name, help: help, typ: "counter"},
		vec: vec[Counter]{
			labels: labels,
			newM:   func() *Counter { return &Counter{} },
			kids:   make(map[string]*vecChild[Counter]),
		},
	}
	r.register(v.desc, func(e *encoder) {
		e.header(v.desc)
		for _, c := range v.snapshot() {
			e.sample(v.desc.name, labels, c.values, formatUint(c.m.Value()))
		}
	})
	return v
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	d := desc{name: name, help: help, typ: "gauge"}
	r.register(d, func(e *encoder) {
		e.header(d)
		e.sample(d.name, nil, nil, formatFloat(g.Value()))
	})
	return g
}

// GaugeVec registers and returns a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	mustValidLabels(labels)
	v := &GaugeVec{
		desc: desc{name: name, help: help, typ: "gauge"},
		vec: vec[Gauge]{
			labels: labels,
			newM:   func() *Gauge { return &Gauge{} },
			kids:   make(map[string]*vecChild[Gauge]),
		},
	}
	r.register(v.desc, func(e *encoder) {
		e.header(v.desc)
		for _, c := range v.snapshot() {
			e.sample(v.desc.name, labels, c.values, formatFloat(c.m.Value()))
		}
	})
	return v
}

// GaugeFunc registers a gauge whose value is fn() at scrape time. fn
// must be safe for concurrent use and must not call back into the
// registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{desc: desc{name: name, help: help, typ: "gauge"}, fn: fn}
	r.register(g.desc, func(e *encoder) {
		e.header(g.desc)
		e.sample(g.desc.name, nil, nil, formatFloat(fn()))
	})
	return g
}

// GaugeVecFunc registers a labeled gauge family collected at scrape
// time: collect receives an emit callback and produces every sample of
// the family. Samples are sorted by label values before encoding, so
// collect order does not matter. collect must be safe for concurrent
// use and must not call back into the registry.
func (r *Registry) GaugeVecFunc(name, help string, labels []string, collect func(emit func(value float64, labelValues ...string))) *GaugeVecFunc {
	mustValidLabels(labels)
	g := &GaugeVecFunc{
		desc:    desc{name: name, help: help, typ: "gauge"},
		labels:  labels,
		collect: collect,
	}
	r.register(g.desc, func(e *encoder) {
		e.header(g.desc)
		type sample struct {
			values []string
			v      float64
		}
		var samples []sample
		collect(func(v float64, labelValues ...string) {
			if len(labelValues) != len(labels) {
				panic(fmt.Sprintf("telemetry: %s emitted %d label values for labels %v", name, len(labelValues), labels))
			}
			samples = append(samples, sample{values: append([]string(nil), labelValues...), v: v})
		})
		sort.Slice(samples, func(i, j int) bool { return sliceLess(samples[i].values, samples[j].values) })
		for _, s := range samples {
			e.sample(g.desc.name, labels, s.values, formatFloat(s.v))
		}
	})
	return g
}

// Histogram registers and returns a histogram with the given bucket
// upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := NewHistogram(buckets)
	d := desc{name: name, help: help, typ: "histogram"}
	r.register(d, func(e *encoder) {
		e.header(d)
		e.histogram(d.name, nil, nil, h)
	})
	return h
}

// HistogramVec registers and returns a labeled histogram family, every
// child sharing the same bucket layout.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	mustValidLabels(labels)
	bounds := checkBuckets(buckets)
	v := &HistogramVec{
		desc: desc{name: name, help: help, typ: "histogram"},
		vec: vec[Histogram]{
			labels: labels,
			newM:   func() *Histogram { return NewHistogram(bounds) },
			kids:   make(map[string]*vecChild[Histogram]),
		},
	}
	r.register(v.desc, func(e *encoder) {
		e.header(v.desc)
		for _, c := range v.snapshot() {
			e.histogram(v.desc.name, labels, c.values, c.m)
		}
	})
	return v
}
