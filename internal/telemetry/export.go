package telemetry

import (
	"encoding/json"
)

// GaugeSnapshot is an immutable view of a gauge.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Snapshot is a point-in-time copy of everything a registry holds —
// the JSON document served at /telemetry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	BuildInfo  map[string]string            `json:"build_info,omitempty"`
}

// Snapshot captures the registry's current state. Nil-safe: a nil registry
// yields an empty (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]GaugeSnapshot{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.runUpdaters()
	r.mu.RLock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.RUnlock()
	for _, c := range counters {
		snap.Counters[c.Name()] = c.Value()
	}
	for _, g := range gauges {
		snap.Gauges[g.Name()] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
	}
	for _, h := range hists {
		snap.Histograms[h.Name()] = h.Snapshot()
	}
	snap.BuildInfo = r.BuildInfo()
	return snap
}

// MarshalJSON renders the snapshot (maps marshal with sorted keys, so the
// output is deterministic for a fixed state).
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}
