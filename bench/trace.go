package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Start/End are nanoseconds since the tracer's
// epoch; Parent is the ID of the span that caused it (0 for a root); Trace
// is shared by every span of one step or one request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out once, at exit. A nil
// tracer records nothing, so the untraced runs share the traced code paths
// at the cost of one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID, to be passed to end.
func (t *tracer) begin(name string, parent, trace int) int {
	if t == nil {
		return 0
	}
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: start})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// timed runs fn under a span.
func (t *tracer) timed(name string, parent, trace int, fn func()) {
	id := t.begin(name, parent, trace)
	fn()
	t.end(id)
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanTotals is the per-name aggregate of a span set.
type spanTotals struct {
	Count  int   `json:"count"`
	Total  int64 `json:"total_ns"`
	SelfNs int64 `json:"self_ns"`
}

// selfTimes reduces spans to per-name totals. A span's self time is its
// duration minus the part of its interval that its child spans cover;
// children that overlap each other (parallel workers) are counted once.
func selfTimes(spans []span) map[string]*spanTotals {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*spanTotals{}
	for _, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		d := s.End - s.Start
		t.Count++
		t.Total += d
		t.SelfNs += d - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, edge int64 = 0, lo
	for _, c := range iv {
		a, b := c[0], c[1]
		if a < edge {
			a = edge
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			edge = b
		}
	}
	return sum
}

// traceFile is what a traced run leaves behind for one workload.
type traceFile struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Totals   map[string]*spanTotals `json:"totals"`
	Spans    []span                 `json:"spans"`
}

// writeTrace writes the span file for one workload under dir.
func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Totals: selfTimes(spans), Spans: spans})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	return path, os.WriteFile(path, data, 0o644)
}
