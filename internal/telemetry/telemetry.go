// Package telemetry is the repository's zero-dependency observability
// layer: atomic counters and gauges, lock-striped latency/size histograms
// with quantile export, identity-carrying traces (trace.go) and live status
// providers. A Registry names and owns a set of instruments and exports
// them as JSON or Prometheus text, over an optional debug HTTP server (+
// pprof), so a running in-situ pipeline or query workload can be inspected
// live.
//
// Design rules, in order:
//
//  1. Disabled instrumentation must cost (almost) nothing. Every handle
//     type (*Counter, *Gauge, *Histogram, *ActiveSpan, *TraceRecorder) is
//     nil-safe: all methods on a nil receiver are no-ops, so packages keep
//     plain handle variables and never branch on an "enabled" flag. The
//     budget — enforced by the guards that read MeasureOverhead — is < 2%
//     on the bitvec append hot loop.
//  2. Enabled instrumentation must stay off the hot path. Hot loops count
//     into plain struct fields (e.g. bitvec.Appender) and flush once per
//     built artifact; only coarse-grained events (a query, a span, a build)
//     touch shared atomics.
//  3. No dependencies beyond the standard library.
//
// The package-level Default registry is what the instrumented internal
// packages bind to at init; cheap programs never notice it, and the CLIs
// expose it behind -debug-addr.
package telemetry

import (
	"sort"
	"sync"
)

// Registry names and owns a coherent set of instruments. The zero value is
// not usable; call NewRegistry. A nil *Registry is a valid "disabled"
// registry: every lookup returns a nil (no-op) handle.
type Registry struct {
	mu        sync.RWMutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	status    map[string]func() any
	buildInfo map[string]string
	updaters  []func()
	handlers  map[string]debugHandler // extra debug-server routes (see debug.go)
}

// Default is the process-wide registry the instrumented packages (bitvec,
// index, insitu, query, store) bind to at init. Rebind a package with its
// SetTelemetry function to isolate or disable it.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter. Nil-safe: a nil
// registry returns a nil, no-op counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. Nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(name)
		r.hists[name] = h
	}
	return h
}

// PublishStatus registers (or replaces) a named live-status provider: a
// function returning a JSON-marshalable value, called on demand by the
// debug server's /debug/run endpoint. The in-situ pipeline publishes its
// run status under "run". Nil-safe; a nil fn unregisters the name.
func (r *Registry) PublishStatus(name string, fn func() any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if fn == nil {
		delete(r.status, name)
		return
	}
	if r.status == nil {
		r.status = make(map[string]func() any)
	}
	r.status[name] = fn
}

// StatusValue evaluates the named status provider. Nil-safe.
func (r *Registry) StatusValue(name string) (any, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.RLock()
	fn := r.status[name]
	r.mu.RUnlock()
	if fn == nil {
		return nil, false
	}
	return fn(), true
}

// RegisterUpdater adds a hook that Snapshot runs before collecting, so
// pull-style sources (the runtime-metrics collector) can refresh their
// gauges right when a snapshot, scrape, or history sample is taken.
// Updaters must be fast and must not call Snapshot. Nil-safe.
func (r *Registry) RegisterUpdater(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.updaters = append(r.updaters, fn)
	r.mu.Unlock()
}

// runUpdaters invokes the registered pre-snapshot hooks.
func (r *Registry) runUpdaters() {
	if r == nil {
		return
	}
	r.mu.RLock()
	ups := r.updaters
	r.mu.RUnlock()
	for _, fn := range ups {
		fn()
	}
}

// SetBuildInfo merges static build-identity labels (version, go version,
// codec set, ...) exported as the insitubits_build_info gauge and in the
// JSON snapshot. Nil-safe.
func (r *Registry) SetBuildInfo(labels map[string]string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.buildInfo == nil {
		r.buildInfo = make(map[string]string, len(labels))
	}
	for k, v := range labels {
		r.buildInfo[k] = v
	}
}

// BuildInfo returns a copy of the build-identity labels. Nil-safe.
func (r *Registry) BuildInfo() map[string]string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.buildInfo) == 0 {
		return nil
	}
	out := make(map[string]string, len(r.buildInfo))
	for k, v := range r.buildInfo {
		out[k] = v
	}
	return out
}

// names returns the sorted keys of a map, for deterministic export.
func names[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
