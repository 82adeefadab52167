package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceBasics(t *testing.T) {
	rec := NewTraceRecorder(TraceConfig{})
	ctx, root := rec.StartTrace(context.Background(), "request")
	if root == nil {
		t.Fatal("StartTrace returned nil span")
	}
	if got := TraceIDOf(ctx); got != root.TraceID() || len(got) != 32 {
		t.Fatalf("TraceIDOf = %q, root = %q", got, root.TraceID())
	}
	if len(root.SpanID()) != 16 {
		t.Fatalf("span ID %q not 16 hex chars", root.SpanID())
	}
	child := SpanFromContext(ctx).Child("phase")
	child.SetAttr("kind", "test")
	child.SetAttrInt("bins", 42)
	grand := child.Child("io")
	grand.End()
	child.End()
	root.End()

	tr := rec.Get(root.TraceID())
	if tr == nil {
		t.Fatal("kept trace not retrievable by ID")
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(tr.Spans), tr.Spans)
	}
	if tr.Spans[0].Name != "request" || tr.Spans[0].ParentID != "" {
		t.Errorf("root span not first: %+v", tr.Spans[0])
	}
	byID := map[string]TraceSpan{}
	for _, sp := range tr.Spans {
		byID[sp.SpanID] = sp
	}
	var phase, io TraceSpan
	for _, sp := range tr.Spans {
		switch sp.Name {
		case "phase":
			phase = sp
		case "io":
			io = sp
		}
	}
	if phase.ParentID != tr.Spans[0].SpanID {
		t.Errorf("phase span not a child of root: %+v", phase)
	}
	if io.ParentID != phase.SpanID {
		t.Errorf("io span not a child of phase: %+v", io)
	}
	if phase.Attrs["kind"] != "test" || phase.Attrs["bins"] != "42" {
		t.Errorf("attrs lost: %+v", phase.Attrs)
	}
	if st := rec.Stats(); st.Started != 1 || st.Kept != 1 || st.Dropped != 0 {
		t.Errorf("stats: %+v", st)
	}
	// Double End is a no-op.
	root.End()
	if st := rec.Stats(); st.Kept != 1 {
		t.Errorf("double End changed stats: %+v", st)
	}
}

func TestTraceRingEviction(t *testing.T) {
	rec := NewTraceRecorder(TraceConfig{Capacity: 4})
	ids := make([]string, 10)
	for i := range ids {
		_, sp := rec.StartTrace(context.Background(), fmt.Sprintf("t%d", i))
		ids[i] = sp.TraceID()
		sp.End()
	}
	kept := rec.Traces()
	if len(kept) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(kept))
	}
	// Newest first.
	for i, tr := range kept {
		if want := ids[len(ids)-1-i]; tr.TraceID != want {
			t.Errorf("traces[%d] = %s, want %s", i, tr.Name, want)
		}
	}
	if rec.Get(ids[0]) != nil {
		t.Error("evicted trace still retrievable")
	}
	if rec.Get(ids[9]) == nil {
		t.Error("newest trace not retrievable")
	}
}

func TestHeadSampling(t *testing.T) {
	rec := NewTraceRecorder(TraceConfig{SampleEvery: 3})
	for i := 0; i < 9; i++ {
		_, sp := rec.StartTrace(context.Background(), "q")
		sp.End()
	}
	st := rec.Stats()
	if st.Started != 9 || st.Kept != 3 || st.Dropped != 6 {
		t.Errorf("1-in-3 sampling kept %d of %d (dropped %d)", st.Kept, st.Started, st.Dropped)
	}
}

func TestKeepSlowOverridesSampling(t *testing.T) {
	rec := NewTraceRecorder(TraceConfig{SampleEvery: 1 << 30, SlowThreshold: time.Nanosecond})
	_, first := rec.StartTrace(context.Background(), "first") // seq 1: head-sampled
	first.End()
	_, sp := rec.StartTrace(context.Background(), "slow") // seq 2: not sampled
	time.Sleep(time.Millisecond)
	sp.End()
	tr := rec.Get(sp.TraceID())
	if tr == nil {
		t.Fatal("slow trace was dropped despite SlowThreshold")
	}
	if !tr.Slow || tr.Sampled {
		t.Errorf("slow trace flags: %+v", tr)
	}
	// Both traces exceeded the 1ns threshold, so both count as slow keeps.
	if st := rec.Stats(); st.KeptSlow != 2 || st.Kept != 2 {
		t.Errorf("kept-slow count: %+v", st)
	}

	// Fast and unsampled → dropped.
	fast := NewTraceRecorder(TraceConfig{SampleEvery: 1 << 30, SlowThreshold: time.Hour})
	_, a := fast.StartTrace(context.Background(), "a") // seq 1: sampled
	a.End()
	_, b := fast.StartTrace(context.Background(), "b")
	b.End()
	if fast.Get(b.TraceID()) != nil {
		t.Error("fast unsampled trace was kept")
	}
	if st := fast.Stats(); st.Dropped != 1 {
		t.Errorf("drop count: %+v", st)
	}
}

// A trace past the span cap keeps its root first: 522 children then the
// root give maxSpans spans, spans[0] the root with no parent, and the trace
// marked truncated.
func TestSpanCapTruncation(t *testing.T) {
	rec := NewTraceRecorder(TraceConfig{})
	_, root := rec.StartTrace(context.Background(), "big")
	for i := 0; i < maxSpans+10; i++ {
		root.Child("c").End()
	}
	root.End()
	tr := rec.Get(root.TraceID())
	if tr == nil {
		t.Fatal("trace dropped")
	}
	if !tr.Truncated {
		t.Error("truncation not flagged")
	}
	if len(tr.Spans) != maxSpans {
		t.Errorf("%d spans survived a cap of %d", len(tr.Spans), maxSpans)
	}
	if sp := tr.Spans[0]; sp.SpanID != root.SpanID() || sp.ParentID != "" || sp.Name != "big" {
		t.Errorf("spans[0] is %q (id %s, parent %q), want the root %s with no parent", sp.Name, sp.SpanID, sp.ParentID, root.SpanID())
	}
}

func TestStartSpanDisabledPath(t *testing.T) {
	SetTraceRecorder(nil)
	ctx, sp := StartSpan(context.Background(), "q")
	if sp != nil {
		t.Fatal("StartSpan minted a span with tracing disabled")
	}
	if SpanFromContext(ctx) != nil || TraceIDOf(ctx) != "" {
		t.Error("disabled path leaked trace state into the context")
	}
	// The whole nil-span surface must be no-op safe.
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 1)
	sp.Child("c").End()
	sp.End()
	if sp.TraceID() != "" || sp.SpanID() != "" {
		t.Error("nil span has identity")
	}
}

func TestStartSpanDefaultRecorder(t *testing.T) {
	rec := NewTraceRecorder(TraceConfig{})
	SetTraceRecorder(rec)
	defer SetTraceRecorder(nil)
	ctx, root := StartSpan(context.Background(), "outer")
	if root == nil {
		t.Fatal("StartSpan ignored the installed recorder")
	}
	ctx2, inner := StartSpan(ctx, "inner")
	if inner.TraceID() != root.TraceID() {
		t.Error("nested StartSpan opened a new trace instead of a child")
	}
	if SpanFromContext(ctx2) != inner {
		t.Error("returned context does not carry the child span")
	}
	inner.End()
	root.End()
	tr := rec.Get(root.TraceID())
	if tr == nil || len(tr.Spans) != 2 {
		t.Fatalf("trace: %+v", tr)
	}
	if tr.Spans[1].ParentID != tr.Spans[0].SpanID {
		t.Error("inner span not linked to outer")
	}
}

// TestConcurrentTraceRing hammers the recorder from many goroutines —
// writers producing traces with child spans while readers list, fetch and
// export concurrently. Run under -race (the race-hot Makefile target
// includes this package).
func TestConcurrentTraceRing(t *testing.T) {
	rec := NewTraceRecorder(TraceConfig{Capacity: 8, SampleEvery: 2, SlowThreshold: time.Hour})
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				ctx, root := rec.StartTrace(context.Background(), "hammer")
				_, child := StartSpan(ctx, "child")
				child.SetAttrInt("i", int64(i))
				child.End()
				root.End()
			}
		}()
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, tr := range rec.Traces() {
					if rec.Get(tr.TraceID) == nil {
						continue // evicted between list and fetch: fine
					}
					if _, err := json.Marshal(tr); err != nil {
						t.Errorf("export: %v", err)
						return
					}
				}
				rec.Stats()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	st := rec.Stats()
	if st.Started != 800 || st.Kept+st.Dropped != 800 {
		t.Errorf("counts drifted: %+v", st)
	}
	if st.Kept != 400 {
		t.Errorf("1-in-2 sampling kept %d of 800", st.Kept)
	}
	if got := len(rec.Traces()); got != 8 {
		t.Errorf("ring holds %d, want 8", got)
	}
}

func TestTraceIDFormat(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		id := newID(128)
		if len(id) != 32 || strings.Trim(id, "0123456789abcdef") != "" {
			t.Fatalf("bad 128-bit id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
	if id := newID(64); len(id) != 16 {
		t.Fatalf("bad 64-bit id %q", id)
	}
}
