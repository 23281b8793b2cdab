package main

// In-memory span recorder for the traced pass. Spans are recorded from
// the benchmark's side of each layer boundary (around calls into the
// layer's public functions and at the harness's own edges), kept in
// memory, and written out when the workload ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval. Spans of one batch share Trace; Parent is
// the ID of the span that caused this one (0 = a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer collects spans. A nil tracer records nothing, so untraced runs
// pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, trace, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, trace, parent int, fn func(id int)) {
	if t == nil {
		fn(0)
		return
	}
	// Reserve the ID first so children recorded inside fn can name it.
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name})
	t.mu.Unlock()
	start := time.Now()
	fn(id)
	end := time.Now()
	t.mu.Lock()
	t.spans[id-1].StartNS = start.Sub(t.t0).Nanoseconds()
	t.spans[id-1].EndNS = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part
// of it its direct children cover (children of one parent are recorded
// sequentially by the staged replay, so their durations add).
func (t *tracer) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(max(0, s.EndNS-s.StartNS-child[s.ID]))
	}
	return out
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string) error {
	if t == nil || dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), append(b, '\n'), 0o644)
}
