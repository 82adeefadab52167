package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"insitubits/internal/index"
	"insitubits/internal/metrics"
	"insitubits/internal/qlog"
	"insitubits/internal/query"
	"insitubits/internal/telemetry"
)

// maxBody bounds a request body; query requests are a few hundred bytes.
const maxBody = 1 << 20

// QueryRequest is the body of POST /v1/query. Var selects the served
// variable (optional when exactly one is served); value/spatial bounds
// follow query.Subset semantics (half-open, active when hi > lo). Op
// "correlation" takes the second operand via VarB and the b_* bounds; op
// "explain" estimates ExplainOp's plan without executing it. TimeoutMs
// overrides the server's default deadline, clamped to its maximum.
type QueryRequest struct {
	Op  string `json:"op"`
	Var string `json:"var,omitempty"`

	ValueLo   float64 `json:"value_lo,omitempty"`
	ValueHi   float64 `json:"value_hi,omitempty"`
	SpatialLo int     `json:"spatial_lo,omitempty"`
	SpatialHi int     `json:"spatial_hi,omitempty"`
	Q         float64 `json:"q,omitempty"`

	VarB       string  `json:"var_b,omitempty"`
	BValueLo   float64 `json:"b_value_lo,omitempty"`
	BValueHi   float64 `json:"b_value_hi,omitempty"`
	BSpatialLo int     `json:"b_spatial_lo,omitempty"`
	BSpatialHi int     `json:"b_spatial_hi,omitempty"`

	ExplainOp string `json:"explain_op,omitempty"`
	TimeoutMs int64  `json:"timeout_ms,omitempty"`
}

// AggregateResult mirrors query.Aggregate on the wire.
type AggregateResult struct {
	Count    int     `json:"count"`
	Estimate float64 `json:"estimate"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
}

// QueryResponse is the success body of POST /v1/query. Digest is the same
// canonical result digest the workload log records, so a client can
// byte-compare answers across servers, codecs, and cache states.
// Generation/CatalogGen pin exactly which published index answered.
type QueryResponse struct {
	Op  string `json:"op"`
	Var string `json:"var"`

	Count     int              `json:"count,omitempty"`
	Aggregate *AggregateResult `json:"aggregate,omitempty"`
	Min       *AggregateResult `json:"min,omitempty"`
	Max       *AggregateResult `json:"max,omitempty"`
	Pair      *metrics.Pair    `json:"pair,omitempty"`
	Explain   string           `json:"explain,omitempty"`

	Digest      string `json:"digest"`
	Generation  uint64 `json:"generation"`
	GenerationB uint64 `json:"generation_b,omitempty"`
	CatalogGen  uint64 `json:"catalog_generation"`
	Step        int    `json:"step"`
	ElapsedNs   int64  `json:"elapsed_ns"`
	TraceID     string `json:"trace_id,omitempty"`
}

// ErrorResponse is the body of every non-200 answer. RetryAfterMs is set
// on retryable rejections (429) and mirrors the Retry-After /
// X-Retry-After-Ms headers.
type ErrorResponse struct {
	Error        string `json:"error"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// testHookBeforeExecute, when non-nil, runs after admission and before
// execution — the chaos harness's panic-injection point.
var testHookBeforeExecute func(*QueryRequest)

func (s *Server) routes() {
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/vars", s.handleVars)
	s.mux.HandleFunc("/v1/reload", s.handleReload)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
}

// handleHealthz is pure liveness: if the process can answer HTTP at all it
// answers 200, even while loading or draining. Readiness is /readyz's job
// — conflating the two makes an orchestrator kill a server that is merely
// overloaded or draining.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "state": s.Status().State})
}

// handleReadyz answers 200 only when the query path accepts work: loaded,
// not draining, and the workload log (when installed) healthy. 503
// otherwise, with the reason — the signal a load balancer uses to rotate
// the server out ahead of drain.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ok, reason := s.ready()
	body := map[string]any{"ready": ok, "status": s.Status()}
	code := http.StatusOK
	if !ok {
		body["reason"] = reason
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only", 0)
		return
	}
	c := s.cat.Load()
	if c == nil {
		writeError(w, http.StatusServiceUnavailable, "no catalog loaded", 0)
		return
	}
	entries := make([]*Entry, 0, len(c.names))
	for _, n := range c.names {
		entries = append(entries, c.entries[n])
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"catalog_generation": c.gen, "step": c.step, "vars": entries,
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only", 0)
		return
	}
	swapped, err := s.Reload()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), 0)
		return
	}
	c := s.cat.Load()
	writeJSON(w, http.StatusOK, map[string]any{
		"reloaded": swapped, "catalog_generation": c.gen, "step": c.step,
	})
}

// handleQuery is the serving path: drain check → decode → clamped deadline
// → trace adoption → admission → panic-isolated execution against one
// catalog snapshot.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.tel.requests.Inc()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only", 0)
		return
	}

	// In-flight accounting opens before the drain check: Drain flips the
	// state and then waits for the group to empty, so a request that passes
	// the check is guaranteed to be waited for.
	s.inflight.enter()
	defer s.inflight.leave()
	if s.state.Load() != stateReady {
		s.refused.Add(1)
		_, reason := s.ready()
		writeError(w, http.StatusServiceUnavailable, "not serving: "+reason, 0)
		return
	}

	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error(), 0)
		return
	}

	// Snapshot the catalog once. Everything below — admission, execution,
	// the response's generation stamps — uses this snapshot, so a reload
	// published mid-request can never mix generations.
	cat := s.cat.Load()

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		// Clamp before converting: a large count of milliseconds overflows
		// a Duration, to zero or a negative span.
		timeout = s.cfg.MaxTimeout
		if req.TimeoutMs < s.cfg.MaxTimeout.Milliseconds() {
			timeout = time.Duration(req.TimeoutMs) * time.Millisecond
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Adopt the client's trace ID (traceparent or X-Trace-Id) so the
	// server's trace ring, slow-query log, and workload log join the
	// caller's distributed trace. Invalid IDs fall back to a minted one.
	var span *telemetry.ActiveSpan
	traceID := remoteTraceID(r)
	if rec := telemetry.DefaultTraceRecorder(); rec != nil {
		ctx, span = rec.StartTraceWithID(ctx, "serve."+req.Op, traceID)
		defer span.End()
	}

	// Admission: a free slot admits immediately; otherwise wait in the
	// bounded queue under the request deadline. Shed and queue-deadline
	// rejections both answer 429 — the request never executed, so the
	// client should back off and retry.
	release, err := s.adm.acquire(ctx)
	if err != nil {
		s.tel.shed.Inc()
		msg := err.Error()
		if !errors.Is(err, ErrShed) {
			s.tel.shed.Add(-1)
			s.tel.cancelled.Inc()
			msg = "deadline passed while queued for admission: " + msg
		}
		writeShed(w, s.cfg.RetryAfter, msg)
		return
	}
	s.tel.admitted.Inc()
	s.tel.inflight.Set(int64(s.adm.inflight()))
	s.tel.queued.Set(int64(s.adm.waiting()))
	defer func() {
		release()
		s.tel.inflight.Set(int64(s.adm.inflight()))
	}()

	// Panic isolation: one bad request answers 500; the server survives.
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			s.tel.panics.Inc()
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: panic: %v", p), 0)
		}
	}()

	if ctx.Err() != nil {
		// Admitted, but the deadline elapsed before execution; nothing ran,
		// so this is still retryable.
		writeShed(w, s.cfg.RetryAfter, "deadline passed before execution")
		return
	}
	if h := testHookBeforeExecute; h != nil {
		h(&req)
	}

	start := time.Now()
	resp, code, err := s.execute(ctx, cat, &req)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			writeShed(w, s.cfg.RetryAfter, "cancelled during execution: "+err.Error())
			return
		}
		writeError(w, code, err.Error(), 0)
		return
	}
	resp.CatalogGen = cat.gen
	resp.Step = cat.step
	resp.ElapsedNs = time.Since(start).Nanoseconds()
	if span != nil {
		resp.TraceID = span.TraceID()
	}
	s.tel.latency.RecordExemplar(resp.ElapsedNs, resp.TraceID)
	writeJSON(w, http.StatusOK, resp)
}

// NewQueryRequest is the wire form of a query.Request; the caller fills in
// Var/VarB and any transport fields. It is the inverse of the decoding
// execute does, so a client that builds its request here cannot drop or
// mislabel a bound.
func NewQueryRequest(req query.Request) *QueryRequest {
	return &QueryRequest{
		Op:      string(req.Op),
		ValueLo: req.A.ValueLo, ValueHi: req.A.ValueHi, SpatialLo: req.A.SpatialLo, SpatialHi: req.A.SpatialHi,
		Q:        req.Q,
		BValueLo: req.B.ValueLo, BValueHi: req.B.ValueHi, BSpatialLo: req.B.SpatialLo, BSpatialHi: req.B.SpatialHi,
	}
}

// request decodes the wire form back into the query.Request it carries;
// explain reports op "explain", whose operand is ExplainOp (default count,
// or correlation when a second variable is named).
func (r *QueryRequest) request() (req query.Request, explain bool, err error) {
	name := r.Op
	if explain = name == "explain"; explain {
		switch name = r.ExplainOp; {
		case name != "":
		case r.VarB != "":
			name = string(query.OpCorrelation)
		default:
			name = string(query.OpCount)
		}
	}
	req = query.Request{
		A: query.Subset{ValueLo: r.ValueLo, ValueHi: r.ValueHi, SpatialLo: r.SpatialLo, SpatialHi: r.SpatialHi},
		B: query.Subset{ValueLo: r.BValueLo, ValueHi: r.BValueHi, SpatialLo: r.BSpatialLo, SpatialHi: r.BSpatialHi},
		Q: r.Q,
	}
	req.Op, err = query.ParseOp(name)
	return req, explain, err
}

func wireAggregate(a query.Aggregate) *AggregateResult {
	return &AggregateResult{a.Count, a.Estimate, a.Lo, a.Hi}
}

// execute runs one decoded request against one catalog snapshot. The
// returned code is only meaningful alongside a non-nil error.
func (s *Server) execute(ctx context.Context, cat *catalog, wire *QueryRequest) (*QueryResponse, int, error) {
	e, err := cat.get(wire.Var)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	req, explain, err := wire.request()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	resp := &QueryResponse{Op: wire.Op, Var: e.Name, Generation: e.Gen}
	var xb *index.Index
	if req.Op == query.OpCorrelation {
		eb, err := cat.get(wire.VarB)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("correlation operand b: %w", err)
		}
		xb, resp.GenerationB = eb.X, eb.Gen
	}
	if explain {
		prof, err := query.ExplainRequest(req, e.X, xb)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		// An estimate has no result to digest; fingerprint its rendering so
		// the response always carries one.
		resp.Explain = prof.Render()
		resp.Digest = qlog.DigestString(resp.Explain)
		return resp, http.StatusOK, nil
	}
	ans, err := query.Run(ctx, req, e.X, xb)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	resp.SetAnswer(&ans)
	return resp, http.StatusOK, nil
}

// SetAnswer fills in the result fields and the digest of an executed
// request — what the server sends, and what `bitmapctl query FILE` prints.
// A bits answer travels as its cardinality, which the digest's walk of the
// bitmap already counts.
func (resp *QueryResponse) SetAnswer(ans *query.Answer) {
	switch ans.Op {
	case query.OpBits:
		resp.Digest, resp.Count = ans.BitsDigest()
		return
	case query.OpCount:
		resp.Count = ans.Count
	case query.OpMinMax:
		resp.Min, resp.Max = wireAggregate(ans.Min), wireAggregate(ans.Max)
	case query.OpCorrelation:
		pair := ans.Pair // a copy, so only a correlation's answer escapes
		resp.Pair = &pair
	default:
		resp.Aggregate = wireAggregate(ans.Agg)
	}
	resp.Digest = ans.Digest()
}

// remoteTraceID extracts the caller's trace ID from a W3C traceparent
// header ("00-<32 hex trace id>-<16 hex span id>-<flags>") or the plain
// X-Trace-Id header. "" when neither is present or parseable.
func remoteTraceID(r *http.Request) string {
	if tp := r.Header.Get("traceparent"); tp != "" {
		parts := strings.Split(tp, "-")
		if len(parts) >= 2 && telemetry.ValidTraceID(parts[1]) {
			return parts[1]
		}
	}
	if id := r.Header.Get("X-Trace-Id"); telemetry.ValidTraceID(id) {
		return id
	}
	return ""
}

// writeShed answers a retryable rejection: 429 with both the standard
// integer-seconds Retry-After (rounded up, so "0" never tells a client to
// hammer) and the precise X-Retry-After-Ms our own client prefers.
func writeShed(w http.ResponseWriter, retryAfter time.Duration, msg string) {
	ms := retryAfter.Milliseconds()
	if ms <= 0 {
		ms = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt((ms+999)/1000, 10))
	w.Header().Set("X-Retry-After-Ms", strconv.FormatInt(ms, 10))
	writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: msg, RetryAfterMs: ms})
}

func writeError(w http.ResponseWriter, code int, msg string, retryAfterMs int64) {
	writeJSON(w, code, ErrorResponse{Error: msg, RetryAfterMs: retryAfterMs})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
