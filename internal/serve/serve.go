// Package serve is the concurrent query server: an HTTP/JSON daemon that
// loads immutable .isbm indexes once (shared, read-only,
// generation-stamped) and executes Count/Sum/Mean/Quantile/MinMax/Bits/
// Correlation/EXPLAIN requests through the existing planner, bitmap cache,
// workload log, tracing, and pprof labels (cmd/insitu-serve is the
// binary; docs/SERVING.md the manual).
//
// Robustness is the core of the design, not a wrapper:
//
//   - Per-request deadlines: a server default, overridable per request and
//     clamped to a maximum, bounds the admission wait.
//   - Admission control: a max-inflight semaphore fronted by a bounded
//     wait queue. A full queue sheds with 429 + Retry-After — overload
//     degrades to fast rejections, never to collapse.
//   - Panic isolation: a panicking request answers 500 and increments a
//     counter; the server survives.
//   - Zero-downtime reload: catalogs are immutable snapshots behind one
//     atomic pointer. A request captures its snapshot at admission, so a
//     publish mid-request can never mix generations; superseded
//     generations are invalidated from the bitmap cache after the swap.
//   - Graceful drain: Drain flips readiness (so /readyz answers 503 and
//     load balancers rotate the server out), refuses new queries, and
//     waits for in-flight requests under a drain deadline.
//   - Identity propagation: a traceparent or X-Trace-Id header joins the
//     server's trace, slow-log, and workload-log records to the client's
//     trace ID.
//
// The chaos harness in this package (overload storms, slow-loris clients,
// publish-during-query, kill-during-drain) is the executable proof of
// those claims — wired into CI as `make serve-chaos`.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"insitubits/internal/bitcache"
	"insitubits/internal/qlog"
	"insitubits/internal/telemetry"
)

// Config bounds a Server. The zero value gets usable defaults; every knob
// is also an insitu-serve flag (docs/SERVING.md "Resilience knobs").
type Config struct {
	// MaxInflight is the number of concurrently executing queries.
	// Default 2×GOMAXPROCS — queries are CPU-bound scans, so slots beyond
	// the core count only add queueing inside the runtime.
	MaxInflight int
	// MaxQueue is the number of requests that may wait for a slot before
	// arrivals are shed with 429. Default 4×MaxInflight.
	MaxQueue int
	// DefaultTimeout bounds a request that does not ask for a deadline
	// itself. Default 2s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps the per-request timeout_ms override. Default 30s.
	MaxTimeout time.Duration
	// DrainTimeout bounds how long Drain waits for in-flight requests.
	// Default 10s.
	DrainTimeout time.Duration
	// RetryAfter is the backoff hint stamped on shed responses (the
	// Retry-After / X-Retry-After-Ms headers). Default 250ms.
	RetryAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
	return c
}

// Server states, in lifecycle order.
const (
	stateLoading int32 = iota
	stateReady
	stateDraining
)

// Server executes query requests against an atomically swappable catalog
// of immutable indexes. Construct with New, load with LoadFiles/LoadDir,
// serve the Handler, and Drain on shutdown.
type Server struct {
	cfg Config
	adm *admission
	cat atomic.Pointer[catalog]

	state    atomic.Int32
	reloadMu sync.Mutex    // serializes catalog swaps
	inflight inflightGroup // requests inside handleQuery, for Drain

	requests atomic.Int64 // /v1/query arrivals
	panics   atomic.Int64 // recovered request panics
	reloads  atomic.Int64 // catalog swaps that changed the snapshot
	refused  atomic.Int64 // refused while loading/draining

	mux *http.ServeMux
	tel struct {
		requests, admitted, shed, cancelled, panics, reloads *telemetry.Counter
		inflight, queued                                     *telemetry.Gauge
		latency                                              *telemetry.Histogram
	}
}

// New builds a Server. No catalog is loaded yet: /readyz answers 503 and
// queries are refused until LoadFiles/LoadDir succeeds.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, adm: newAdmission(cfg.MaxInflight, cfg.MaxQueue)}
	s.state.Store(stateLoading)
	r := telemetry.Default
	s.tel.requests = r.Counter("serve.requests")
	s.tel.admitted = r.Counter("serve.admitted")
	s.tel.shed = r.Counter("serve.shed")
	s.tel.cancelled = r.Counter("serve.queue_cancelled")
	s.tel.panics = r.Counter("serve.panics")
	s.tel.reloads = r.Counter("serve.reloads")
	s.tel.inflight = r.Gauge("serve.inflight")
	s.tel.queued = r.Gauge("serve.queued")
	s.tel.latency = r.Histogram("serve.request_ns")
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Handler returns the server's HTTP handler (the /v1 API plus /healthz and
// /readyz). The caller owns the http.Server wrapping it — including the
// Read/Write timeouts that defeat slow-loris clients (cmd/insitu-serve
// sets both; httptest servers in the chaos harness do too).
func (s *Server) Handler() http.Handler { return s.mux }

// LoadFiles loads explicit "name=path" index specs as the served catalog.
func (s *Server) LoadFiles(specs []string) error {
	return s.swapFrom(func() (*catalog, error) { return loadFiles(specs) })
}

// LoadDir loads the newest committed step of an in-situ run's output
// directory, live or finished, as its journal records it.
func (s *Server) LoadDir(dir string) error {
	return s.swapFrom(func() (*catalog, error) { return loadDir(dir) })
}

// Reload re-runs the loader the current catalog came from and swaps in the
// result if it changed. It returns true when a new catalog was published.
// Safe to call concurrently with queries: in-flight requests keep their
// snapshot; the superseded generations are invalidated from the bitmap
// cache so no later request can hit stale cached bitmaps.
func (s *Server) Reload() (bool, error) {
	cur := s.cat.Load()
	if cur == nil {
		return false, fmt.Errorf("serve: nothing loaded yet")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	cur = s.cat.Load()
	var next *catalog
	var err error
	if cur.step >= 0 {
		next, err = loadDir(cur.source)
	} else {
		// Explicit file set: re-read the same specs (paths are identity).
		specs := make([]string, 0, len(cur.names))
		for _, n := range cur.names {
			specs = append(specs, n+"="+cur.entries[n].Path)
		}
		next, err = loadFiles(specs)
	}
	if err != nil {
		return false, err
	}
	if next.fprint == cur.fprint {
		return false, nil
	}
	s.publish(next, cur)
	return true, nil
}

// Changed reports whether the catalog's source has changed on disk since
// it was loaded — the cheap poll a watcher runs before paying for Reload.
func (s *Server) Changed() bool {
	cur := s.cat.Load()
	if cur == nil || cur.step < 0 {
		return false
	}
	fp, err := dirFingerprint(cur.source)
	return err == nil && fp != cur.fprint
}

// swapFrom runs a loader and publishes its catalog.
func (s *Server) swapFrom(load func() (*catalog, error)) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	next, err := load()
	if err != nil {
		return err
	}
	s.publish(next, s.cat.Load())
	return nil
}

// publish swaps next in (stamping its catalog generation), marks the
// server ready, and invalidates the bitmap-cache generations the old
// catalog held. Invalidation is safe while old-snapshot requests are still
// executing: cache keys embed the index generation, so those requests just
// recompute instead of re-caching stale entries under a live key.
func (s *Server) publish(next, old *catalog) {
	if old != nil {
		next.gen = old.gen + 1
	} else {
		next.gen = 1
	}
	s.cat.Store(next)
	s.state.CompareAndSwap(stateLoading, stateReady)
	if old != nil {
		s.reloads.Add(1)
		s.tel.reloads.Inc()
		if c := bitcache.Default(); c != nil {
			for _, name := range old.names {
				oldE := old.entries[name]
				if newE := next.entries[name]; newE == nil || newE.X != oldE.X {
					c.InvalidateGeneration(oldE.Gen)
				}
			}
		}
	}
}

// Watch polls the catalog source every interval and reloads on change,
// until ctx ends. onSwap (optional) observes each successful swap. This is
// the subscription to a live insitu-run: the server sees each step the
// run's journal commits.
func (s *Server) Watch(ctx context.Context, interval time.Duration, onSwap func(step int)) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if !s.Changed() {
			continue
		}
		if swapped, err := s.Reload(); err == nil && swapped && onSwap != nil {
			onSwap(s.cat.Load().step)
		}
	}
}

// Drain gracefully shuts the query path down: readiness flips to 503 (so
// probes rotate the server out), new queries are refused, and in-flight
// requests get up to DrainTimeout to finish. It returns nil when every
// in-flight request completed, or an error naming how many were abandoned.
func (s *Server) Drain(ctx context.Context) error {
	s.state.Store(stateDraining)
	timeout := time.NewTimer(s.cfg.DrainTimeout)
	defer timeout.Stop()
	select {
	case <-s.inflight.idle():
		return nil
	case <-timeout.C:
		return fmt.Errorf("serve: drain deadline (%s) passed with %d requests still in flight",
			s.cfg.DrainTimeout, s.adm.inflight())
	case <-ctx.Done():
		return fmt.Errorf("serve: drain cancelled: %w", ctx.Err())
	}
}

// inflightGroup counts the requests inside handleQuery so that Drain can
// wait for them. It is not a sync.WaitGroup because requests keep arriving
// while Drain waits — each is counted, refused and released — and a
// WaitGroup forbids an Add from zero concurrent with Wait.
type inflightGroup struct {
	mu     sync.Mutex
	n      int
	zeroed chan struct{} // a waiter's channel while n > 0; closed when n returns to 0
}

func (g *inflightGroup) enter() {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

func (g *inflightGroup) leave() {
	g.mu.Lock()
	g.n--
	if g.n == 0 && g.zeroed != nil {
		close(g.zeroed)
		g.zeroed = nil
	}
	g.mu.Unlock()
}

// idle returns a channel that is closed once no request is in flight: at
// once if none is now, else when the count next returns to zero.
func (g *inflightGroup) idle() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.n == 0 {
		done := make(chan struct{})
		close(done)
		return done
	}
	if g.zeroed == nil {
		g.zeroed = make(chan struct{})
	}
	return g.zeroed
}

// Status is the server's live snapshot, published as the "serve" registry
// status (so /debug/serve, /healthz embedding, `bitmapctl top`, and the
// diag bundle all see it) and embedded in /readyz responses.
type Status struct {
	State       string   `json:"state"` // loading | ready | draining
	CatalogGen  uint64   `json:"catalog_generation"`
	Step        int      `json:"step"`
	Vars        []string `json:"vars,omitempty"`
	MaxInflight int      `json:"max_inflight"`
	MaxQueue    int      `json:"max_queue"`
	Inflight    int      `json:"inflight"`
	Queued      int      `json:"queued"`
	Requests    int64    `json:"requests"`
	Admitted    int64    `json:"admitted"`
	Shed        int64    `json:"shed"`
	Cancelled   int64    `json:"queue_cancelled"`
	Refused     int64    `json:"refused"`
	Panics      int64    `json:"panics"`
	Reloads     int64    `json:"reloads"`
}

// Status returns the live snapshot (atomics only — safe to call from a
// probe at any rate).
func (s *Server) Status() Status {
	st := Status{
		State:       "loading",
		Step:        -1,
		MaxInflight: s.cfg.MaxInflight,
		MaxQueue:    s.cfg.MaxQueue,
		Inflight:    s.adm.inflight(),
		Queued:      s.adm.waiting(),
		Requests:    s.requests.Load(),
		Admitted:    s.adm.admitted.Load(),
		Shed:        s.adm.shed.Load(),
		Cancelled:   s.adm.cancelled.Load(),
		Refused:     s.refused.Load(),
		Panics:      s.panics.Load(),
		Reloads:     s.reloads.Load(),
	}
	switch s.state.Load() {
	case stateReady:
		st.State = "ready"
	case stateDraining:
		st.State = "draining"
	}
	if c := s.cat.Load(); c != nil {
		st.CatalogGen = c.gen
		st.Step = c.step
		st.Vars = c.names
	}
	return st
}

// StatusName is the registry status key PublishStatus registers under.
const StatusName = "serve"

// PublishStatus registers the server's live status with telemetry.Default
// (and mounts /debug/serve and /readyz on its debug server), so the
// ops surface — `bitmapctl top`, `bitmapctl diag`, load balancers probing
// the debug port — sees admission and shed counters without new plumbing.
func (s *Server) PublishStatus() {
	r := telemetry.Default
	r.PublishStatus(StatusName, func() any { return s.Status() })
	r.RegisterDebugHandler("/debug/serve", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Status())
	}))
	r.RegisterDebugHandler("/readyz", http.HandlerFunc(s.handleReadyz))
}

// ready reports whether the query path accepts work, with the refusal
// reason when not.
func (s *Server) ready() (bool, string) {
	switch s.state.Load() {
	case stateLoading:
		return false, "loading"
	case stateDraining:
		return false, "draining"
	}
	if h := qlog.Active().Health(); h.Path != "" && (!h.Enabled || h.Errors > 0) {
		return false, fmt.Sprintf("workload log unhealthy (%d errors, enabled=%v)", h.Errors, h.Enabled)
	}
	return true, ""
}
