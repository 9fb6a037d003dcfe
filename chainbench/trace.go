package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans one traced phase keeps in memory (about
// 40 MB); later spans are counted as dropped.
const maxSpans = 1 << 19

// span is one timed call the benchmark made into a layer, or one
// callback a layer made into the benchmark. Spans of one transfer
// share Xfer; Parent names the span that caused this one. Depot
// Handle spans carry only the hop: the benchmark cannot see which
// session a connection carries without reading inside the depot.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Xfer   uint64 `json:"xfer,omitempty"`
	Name   string `json:"name"`
	Hop    int    `json:"hop,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and named sums in memory until the run ends. A
// nil *tracer records nothing, so untraced phases pay one nil check.
type tracer struct {
	t0      time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int64
	sums    map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sums: map[string]int64{}}
}

// id returns a fresh span id (0 from a nil tracer).
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record keeps one span. id may be 0, in which case one is assigned.
func (t *tracer) record(name string, id, parent, xfer uint64, hop int, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	s := span{ID: id, Parent: parent, Xfer: xfer, Name: name, Hop: hop,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// add accumulates a named count (bytes hashed, nanoseconds spent).
func (t *tracer) add(key string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sums[key] += v
	t.mu.Unlock()
}

func (t *tracer) sum(key string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sums[key]
}

// durations lists the durations of the named spans in the given unit;
// hop > 0 selects one hop.
func (t *tracer) durations(name string, hop int, unit time.Duration) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (hop <= 0 || s.Hop == hop) {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// total sums the durations of the named spans, in nanoseconds.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.durations(name, 0, time.Nanosecond) {
		sum += d
	}
	return sum
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
