package telemetry

import (
	"context"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Identity-carrying request tracing. A TraceRecorder keeps *individual*
// traces: every StartSpan call under a traced context records one concrete
// span with a TraceID/SpanID pair, wall-clock bounds, and free-form
// attributes. Completed traces land in a
// fixed-size ring buffer, so memory stays bounded no matter how long the
// process runs, and can be fetched back by ID as JSON (/debug/traces?id=).
//
// Keep policy: head sampling (keep 1 in SampleEvery traces, decided at
// StartTrace) plus always-keep-slow (a trace whose root span runs at least
// SlowThreshold is kept even when head sampling dropped it). Spans are
// collected for every in-flight trace — cheaply, bounded by maxSpans — so
// the slow-keep decision can be made at root End without losing the tree.
//
// The disabled path is a single atomic pointer load (SpanFromContext on a
// span-free context, or StartSpan with no default recorder), mirroring the
// slow-query-log gate in internal/query; the gated overhead guard covers
// it.

// TraceConfig bounds a TraceRecorder.
type TraceConfig struct {
	// Capacity is the number of completed traces the ring retains.
	// Default 256.
	Capacity int
	// SampleEvery keeps 1 in N started traces (head sampling). 1 keeps
	// everything; 0 defaults to 1.
	SampleEvery int
	// SlowThreshold, when > 0, keeps any trace whose root span runs at
	// least this long, regardless of the head-sampling decision.
	SlowThreshold time.Duration
}

// maxSpans caps the spans recorded per trace, the root's among them; further
// spans are dropped and the trace is marked truncated.
const maxSpans = 512

func (c TraceConfig) withDefaults() TraceConfig {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1
	}
	return c
}

// TraceSpan is one completed span inside a kept trace.
type TraceSpan struct {
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"`
	Name     string            `json:"name"`
	StartNs  int64             `json:"start_unix_nano"`
	DurNs    int64             `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// Trace is one completed, kept trace: a flat span list (the root span is
// first) with parent links forming the tree.
type Trace struct {
	TraceID   string      `json:"trace_id"`
	Name      string      `json:"name"`
	StartNs   int64       `json:"start_unix_nano"`
	DurNs     int64       `json:"duration_ns"`
	Sampled   bool        `json:"sampled"`
	Slow      bool        `json:"slow"`
	Truncated bool        `json:"truncated,omitempty"`
	Spans     []TraceSpan `json:"spans"`
}

// TraceStats counts recorder activity since creation.
type TraceStats struct {
	Started  uint64 `json:"started"`
	Kept     uint64 `json:"kept"`
	KeptSlow uint64 `json:"kept_slow"`
	Dropped  uint64 `json:"dropped"`
}

// TraceRecorder owns the ring of completed traces and mints new ones.
// Safe for concurrent use. The zero value is not usable; call
// NewTraceRecorder.
type TraceRecorder struct {
	cfg     TraceConfig
	started atomic.Uint64
	kept    atomic.Uint64
	slow    atomic.Uint64
	dropped atomic.Uint64

	mu   sync.Mutex
	ring []*Trace // capacity cfg.Capacity, oldest overwritten first
	pos  int
	byID map[string]*Trace
}

// NewTraceRecorder returns a recorder with the given bounds.
func NewTraceRecorder(cfg TraceConfig) *TraceRecorder {
	cfg = cfg.withDefaults()
	return &TraceRecorder{
		cfg:  cfg,
		ring: make([]*Trace, cfg.Capacity),
		byID: make(map[string]*Trace, cfg.Capacity),
	}
}

// Stats returns recorder activity counts. Nil-safe.
func (r *TraceRecorder) Stats() TraceStats {
	if r == nil {
		return TraceStats{}
	}
	return TraceStats{
		Started:  r.started.Load(),
		Kept:     r.kept.Load(),
		KeptSlow: r.slow.Load(),
		Dropped:  r.dropped.Load(),
	}
}

// Traces returns the kept traces, newest first. Nil-safe.
func (r *TraceRecorder) Traces() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, 0, len(r.byID))
	n := len(r.ring)
	for i := 1; i <= n; i++ {
		if t := r.ring[(r.pos-i+n*2)%n]; t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Get returns the kept trace with the given ID, or nil. Nil-safe.
func (r *TraceRecorder) Get(id string) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}

func (r *TraceRecorder) keep(t *Trace) {
	r.mu.Lock()
	if old := r.ring[r.pos]; old != nil {
		delete(r.byID, old.TraceID)
	}
	r.ring[r.pos] = t
	r.byID[t.TraceID] = t
	r.pos = (r.pos + 1) % len(r.ring)
	r.mu.Unlock()
}

// defaultRecorder gates the process-wide tracing fast path: one atomic
// load decides "tracing off" (the common case) before any allocation.
var defaultRecorder atomic.Pointer[TraceRecorder]

// SetTraceRecorder installs rec as the process-wide recorder used by
// StartSpan when the context carries no trace yet. Nil disables tracing.
func SetTraceRecorder(rec *TraceRecorder) {
	defaultRecorder.Store(rec)
}

// DefaultTraceRecorder returns the installed process-wide recorder (nil
// when tracing is disabled).
func DefaultTraceRecorder() *TraceRecorder {
	return defaultRecorder.Load()
}

// activeTrace is one in-flight trace: spans accumulate here until the root
// span ends, when the keep decision is made.
type activeTrace struct {
	rec     *TraceRecorder
	traceID string
	name    string
	sampled bool
	startNs int64

	mu        sync.Mutex
	spans     []TraceSpan
	truncated bool
}

// ActiveSpan is one open span in an in-flight trace. A nil *ActiveSpan is
// a valid no-op (the uninstrumented path), like every other handle in this
// package. End it exactly once; ending the root span finalizes the trace.
// Child and End are safe to call from different goroutines than the one
// that started the span; SetAttr on a single span is not concurrency-safe.
type ActiveSpan struct {
	at       *activeTrace
	spanID   string
	parentID string
	name     string
	start    time.Time
	root     bool
	attrs    map[string]string
	ended    atomic.Bool
}

func newID(bits int) string {
	const hex = "0123456789abcdef"
	n := bits / 4
	buf := make([]byte, n)
	var v uint64
	for i := 0; i < n; i++ {
		if i%16 == 0 {
			v = rand.Uint64()
			if i == 0 && v == 0 {
				v = 1 // all-zero IDs are invalid in OTLP
			}
		}
		buf[i] = hex[v&0xf]
		v >>= 4
	}
	return string(buf)
}

// StartTrace begins a new trace rooted at a span with the given name and
// returns a context carrying it. Nil-safe: a nil recorder returns the
// context unchanged and a nil span.
func (r *TraceRecorder) StartTrace(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	return r.StartTraceWithID(ctx, name, "")
}

// StartTraceWithID begins a new trace like StartTrace, but adopts the
// caller-supplied trace ID — the W3C-style propagation path a server uses
// to join its spans to a client's trace. The ID must be 32 lowercase hex
// digits and not all-zero (ValidTraceID); anything else falls back to a
// freshly minted ID, so a malicious or sloppy client can never corrupt the
// ring's keying. Nil-safe.
func (r *TraceRecorder) StartTraceWithID(ctx context.Context, name, traceID string) (context.Context, *ActiveSpan) {
	if r == nil {
		return ctx, nil
	}
	if !ValidTraceID(traceID) {
		traceID = newID(128)
	}
	seq := r.started.Add(1)
	at := &activeTrace{
		rec:     r,
		traceID: traceID,
		name:    name,
		sampled: r.cfg.SampleEvery == 1 || seq%uint64(r.cfg.SampleEvery) == 1,
		startNs: time.Now().UnixNano(),
	}
	sp := &ActiveSpan{
		at:     at,
		spanID: newID(64),
		name:   name,
		start:  time.Now(),
		root:   true,
	}
	return ContextWithSpan(ctx, sp), sp
}

// ValidTraceID reports whether id is a well-formed 128-bit trace ID: 32
// lowercase hex digits, not all zero (the invalid ID in both OTLP and the
// W3C traceparent spec).
func ValidTraceID(id string) bool {
	if len(id) != 32 {
		return false
	}
	zero := true
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			zero = false
		}
	}
	return !zero
}

type spanCtxKey struct{}

// ContextWithSpan returns a context carrying the span (nil span returns
// ctx unchanged).
func ContextWithSpan(ctx context.Context, sp *ActiveSpan) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *ActiveSpan {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*ActiveSpan)
	return sp
}

// TraceIDOf returns the trace ID carried by ctx, or "".
func TraceIDOf(ctx context.Context) string {
	if sp := SpanFromContext(ctx); sp != nil {
		return sp.at.traceID
	}
	return ""
}

// StartSpan opens a span named name: as a child of the span in ctx when
// one is present, otherwise as the root of a new trace on the default
// recorder, otherwise a no-op nil span. The returned context carries the
// new span (it is ctx unchanged on the no-op path).
func StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	if parent := SpanFromContext(ctx); parent != nil {
		sp := parent.Child(name)
		return ContextWithSpan(ctx, sp), sp
	}
	if rec := defaultRecorder.Load(); rec != nil {
		return rec.StartTrace(ctx, name)
	}
	return ctx, nil
}

// TraceID returns the owning trace's ID ("" on a nil span).
func (s *ActiveSpan) TraceID() string {
	if s == nil {
		return ""
	}
	return s.at.traceID
}

// SpanID returns the span's ID ("" on a nil span).
func (s *ActiveSpan) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// Child opens a sub-span. Nil-safe: a nil receiver returns nil.
func (s *ActiveSpan) Child(name string) *ActiveSpan {
	if s == nil {
		return nil
	}
	return &ActiveSpan{
		at:       s.at,
		spanID:   newID(64),
		parentID: s.spanID,
		name:     name,
		start:    time.Now(),
	}
}

// SetAttr attaches a string attribute to the span. Nil-safe.
func (s *ActiveSpan) SetAttr(key, val string) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = val
}

// SetAttrInt attaches an integer attribute to the span. Nil-safe.
func (s *ActiveSpan) SetAttrInt(key string, val int64) {
	s.SetAttr(key, strconv.FormatInt(val, 10))
}

// End closes the span and records it into the in-flight trace. Ending the
// root span finalizes the trace: it is kept when head-sampled or when its
// duration reaches the recorder's SlowThreshold, and dropped otherwise.
// Spans ended after their root are lost. Nil-safe; second End is a no-op.
func (s *ActiveSpan) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	dur := time.Since(s.start)
	at := s.at
	rec := at.rec
	at.mu.Lock()
	span := TraceSpan{
		SpanID:   s.spanID,
		ParentID: s.parentID,
		Name:     s.name,
		StartNs:  s.start.UnixNano(),
		DurNs:    int64(dur),
		Attrs:    s.attrs,
	}
	switch {
	case s.root:
		// Root first, so exporters and readers can treat spans[0] as the
		// tree root. Its slot is reserved: children stop at maxSpans-1.
		at.spans = append(at.spans, TraceSpan{})
		copy(at.spans[1:], at.spans)
		at.spans[0] = span
	case len(at.spans) < maxSpans-1:
		at.spans = append(at.spans, span)
	default:
		at.truncated = true
	}
	if !s.root {
		at.mu.Unlock()
		return
	}
	slow := rec.cfg.SlowThreshold > 0 && dur >= rec.cfg.SlowThreshold
	keep := at.sampled || slow
	var t *Trace
	if keep {
		t = &Trace{
			TraceID:   at.traceID,
			Name:      at.name,
			StartNs:   at.startNs,
			DurNs:     int64(dur),
			Sampled:   at.sampled,
			Slow:      slow,
			Truncated: at.truncated,
			Spans:     at.spans,
		}
		at.spans = nil
	}
	at.mu.Unlock()
	if t == nil {
		rec.dropped.Add(1)
		return
	}
	rec.kept.Add(1)
	if slow {
		rec.slow.Add(1)
	}
	rec.keep(t)
}
