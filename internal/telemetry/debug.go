package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// DebugServer is the live-introspection HTTP endpoint the CLIs start
// behind -debug-addr. It serves:
//
//	/telemetry             the registry snapshot as JSON
//	/metrics               the snapshot in Prometheus text exposition format
//	/healthz               liveness plus run/qlog/cache component status
//	/debug/traces          recent kept traces; ?id= fetches one as JSON
//	/debug/run             the "run" live-status provider (the in-situ pipeline)
//	/debug/cache           the "cache" live-status provider (the bitmap cache)
//	/debug/metrics/history the metrics-history ring (StartHistory) with derived rates
//	/debug/pprof/          the standard pprof profiles
//
// While at least one DebugServer is serving, Label tags query and pipeline
// goroutines with pprof labels, so /debug/pprof/profile attributes samples
// to the work that ran.
type DebugServer struct {
	// Addr is the bound address (useful when the caller passed ":0").
	Addr string
	srv  *http.Server
	ln   net.Listener
	stop sync.Once // drops this server from the label gate's count once
}

// ServeDebug binds addr and serves the debug endpoints for this registry in
// a background goroutine until Close or Shutdown is called.
func (r *Registry) ServeDebug(addr string) (*DebugServer, error) {
	if r == nil {
		return nil, fmt.Errorf("telemetry: ServeDebug on nil registry")
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		data, err := r.MarshalJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(data)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck // best-effort over HTTP
	})
	// /healthz embeds the published live-status providers — the in-situ
	// run (index generation, journal state), the qlog writer's health,
	// and the bitmap cache — so liveness probes see component state, not
	// a bare 200.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		out := map[string]any{
			"status":         "ok",
			"uptime_seconds": int64(time.Since(processStart).Seconds()),
		}
		for _, name := range []string{"run", "qlog", "cache"} {
			if v, ok := r.StatusValue(name); ok {
				out[name] = v
			}
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/debug/traces", handleTraces)
	// A published status served as JSON, or a 404 saying what is missing.
	status := func(name, missing string) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			v, ok := r.StatusValue(name)
			if !ok {
				http.Error(w, missing, http.StatusNotFound)
				return
			}
			writeJSON(w, v)
		}
	}
	mux.HandleFunc("/debug/run", status("run", "no run status published"))
	mux.HandleFunc("/debug/cache", status("cache", "no cache status published"))
	mux.HandleFunc("/debug/metrics/history", status(HistoryStatusName, "no metrics history started (StartHistory)"))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		// Late-registered debug handlers (the query server's /debug/serve)
		// are looked up per request, so they work no matter whether they
		// were registered before or after the server started.
		if h := r.DebugHandler(req.URL.Path); h != nil {
			h.ServeHTTP(w, req)
			return
		}
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "insitubits debug server\n\n/telemetry\n/metrics\n/healthz\n/debug/traces\n/debug/run\n/debug/cache\n/debug/metrics/history\n/debug/pprof/\n")
		for _, p := range r.debugHandlerPaths() {
			fmt.Fprintf(w, "%s\n", p)
		}
	})
	r.ensureBuildInfo()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: debug server: %w", err)
	}
	d := &DebugServer{Addr: ln.Addr().String(), srv: &http.Server{Handler: mux}, ln: ln}
	liveDebugServers.Add(1)
	go d.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return d, nil
}

// Close stops the server immediately, dropping in-flight requests, and
// releases the listener. Nil-safe.
func (d *DebugServer) Close() error {
	if d == nil || d.srv == nil {
		return nil
	}
	d.stopped()
	return d.srv.Close()
}

// stopped takes the server out of the label gate's count; Close after
// Shutdown (or either twice) counts once.
func (d *DebugServer) stopped() {
	d.stop.Do(func() { liveDebugServers.Add(-1) })
}

// processStart anchors /healthz uptime.
var processStart = time.Now()

// debugHandler is the handler type extra debug routes register as (the
// alias keeps the Registry struct definition free of an http import).
type debugHandler = http.Handler

// RegisterDebugHandler mounts an extra handler on the registry's debug
// server under path (e.g. "/debug/serve"). Registration is dynamic:
// the route serves whether it was registered before or after ServeDebug.
// A nil handler unregisters the path. Nil-safe.
func (r *Registry) RegisterDebugHandler(path string, h http.Handler) {
	if r == nil || path == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h == nil {
		delete(r.handlers, path)
		return
	}
	if r.handlers == nil {
		r.handlers = make(map[string]debugHandler)
	}
	r.handlers[path] = h
}

// DebugHandler returns the handler registered for path, or nil. Nil-safe.
func (r *Registry) DebugHandler(path string) http.Handler {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.handlers[path]
}

// debugHandlerPaths lists the registered extra routes, sorted.
func (r *Registry) debugHandlerPaths() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return names(r.handlers)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(data) //nolint:errcheck // best-effort over HTTP
}

// ensureBuildInfo fills in default build-identity labels (go version, vcs
// revision when embedded, module version) without overriding labels the
// program already set.
func (r *Registry) ensureBuildInfo() {
	defaults := map[string]string{"goversion": runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			defaults["version"] = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				defaults["revision"] = s.Value
			}
		}
	}
	for k := range r.BuildInfo() {
		delete(defaults, k)
	}
	r.SetBuildInfo(defaults)
}

// handleTraces serves /debug/traces off the process-wide trace recorder:
// with no query parameters, a JSON listing of kept traces (newest first)
// plus recorder stats; with ?id=, the full trace as JSON.
func handleTraces(w http.ResponseWriter, req *http.Request) {
	rec := DefaultTraceRecorder()
	if rec == nil {
		http.Error(w, "tracing disabled (no trace recorder installed)", http.StatusNotFound)
		return
	}
	id := req.URL.Query().Get("id")
	if id == "" {
		traces := rec.Traces()
		type summary struct {
			TraceID string `json:"trace_id"`
			Name    string `json:"name"`
			StartNs int64  `json:"start_unix_nano"`
			DurNs   int64  `json:"duration_ns"`
			Slow    bool   `json:"slow"`
			Spans   int    `json:"spans"`
		}
		out := struct {
			Stats  TraceStats `json:"stats"`
			Traces []summary  `json:"traces"`
		}{Stats: rec.Stats(), Traces: make([]summary, 0, len(traces))}
		for _, t := range traces {
			out.Traces = append(out.Traces, summary{
				TraceID: t.TraceID, Name: t.Name, StartNs: t.StartNs,
				DurNs: t.DurNs, Slow: t.Slow, Spans: len(t.Spans),
			})
		}
		writeJSON(w, out)
		return
	}
	t := rec.Get(id)
	if t == nil {
		http.Error(w, "trace not found (evicted or never kept)", http.StatusNotFound)
		return
	}
	writeJSON(w, t)
}

// Shutdown stops accepting new connections, waits for in-flight requests
// to finish (bounded by ctx), and releases the listener — the graceful
// counterpart to Close for tests and signal-driven -hold runs. Nil-safe.
func (d *DebugServer) Shutdown(ctx context.Context) error {
	if d == nil || d.srv == nil {
		return nil
	}
	d.stopped()
	return d.srv.Shutdown(ctx)
}
