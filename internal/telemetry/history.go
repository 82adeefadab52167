package telemetry

import (
	"sync"
	"time"
)

// HistoryStatusName is the registry status key a started History publishes
// its dump under; /debug/metrics/history serves it.
const HistoryStatusName = "metrics_history"

// HistorySample is one periodic snapshot of the registry's counters and
// gauge values.
type HistorySample struct {
	UnixNs   int64            `json:"unix_ns"`
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"`
}

// HistoryDump is the metrics-history plane's wire format: the retained
// samples oldest-first plus per-second rates derived from consecutive
// counter deltas — what `bitmapctl top` renders as sparklines.
type HistoryDump struct {
	IntervalNs int64           `json:"interval_ns"`
	Capacity   int             `json:"capacity"`
	Samples    []HistorySample `json:"samples"`
	// Rates maps counter name → per-second rate between consecutive
	// samples (len(Samples)-1 points). A counter reset — a registry swap,
	// an index Recode, a process restart behind the same scrape target —
	// makes the raw delta negative; following the Prometheus convention
	// the new value is treated as the growth since the reset, so rates
	// never go negative and post-reset traffic is not swallowed.
	Rates map[string][]float64 `json:"rates,omitempty"`
}

// History samples a registry's counters and gauges into a fixed ring at a
// periodic interval, giving the debug surface a short metric history —
// hit-rates and scan-rates over the last few minutes — without an
// external scraper. Start it with StartHistory; tests drive Sample
// directly for determinism.
type History struct {
	reg      *Registry
	interval time.Duration

	mu      sync.Mutex
	samples []HistorySample // ring storage
	next    int             // next write position
	full    bool

	stop     chan struct{}
	stopOnce sync.Once
}

// NewHistory builds an unstarted history ring over reg (capacity < 2 is
// raised to 2 — rates need consecutive samples; interval <= 0 defaults to
// one second).
func NewHistory(reg *Registry, interval time.Duration, capacity int) *History {
	if capacity < 2 {
		capacity = 2
	}
	if interval <= 0 {
		interval = time.Second
	}
	return &History{
		reg:      reg,
		interval: interval,
		samples:  make([]HistorySample, capacity),
		stop:     make(chan struct{}),
	}
}

// StartHistory builds a history ring, publishes it as the registry's
// "metrics_history" status provider (served at /debug/metrics/history),
// and starts the periodic sampler. Stop it with Stop.
func StartHistory(reg *Registry, interval time.Duration, capacity int) *History {
	h := NewHistory(reg, interval, capacity)
	reg.PublishStatus(HistoryStatusName, func() any { return h.Dump() })
	h.Sample() // the ring is never empty once published
	go h.run()
	return h
}

func (h *History) run() {
	tick := time.NewTicker(h.interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			h.Sample()
		case <-h.stop:
			return
		}
	}
}

// Sample appends one snapshot to the ring now. Safe for concurrent use.
func (h *History) Sample() {
	snap := h.reg.Snapshot()
	s := HistorySample{
		UnixNs:   time.Now().UnixNano(),
		Counters: snap.Counters,
		Gauges:   make(map[string]int64, len(snap.Gauges)),
	}
	for name, g := range snap.Gauges {
		s.Gauges[name] = g.Value
	}
	h.mu.Lock()
	h.samples[h.next] = s
	h.next++
	if h.next == len(h.samples) {
		h.next, h.full = 0, true
	}
	h.mu.Unlock()
}

// Dump returns the retained samples oldest-first with derived per-second
// counter rates. Nil-safe.
func (h *History) Dump() HistoryDump {
	if h == nil {
		return HistoryDump{}
	}
	h.mu.Lock()
	n := h.next
	if h.full {
		n = len(h.samples)
	}
	out := HistoryDump{
		IntervalNs: h.interval.Nanoseconds(),
		Capacity:   len(h.samples),
		Samples:    make([]HistorySample, 0, n),
	}
	if h.full {
		out.Samples = append(out.Samples, h.samples[h.next:]...)
		out.Samples = append(out.Samples, h.samples[:h.next]...)
	} else {
		out.Samples = append(out.Samples, h.samples[:h.next]...)
	}
	h.mu.Unlock()
	if len(out.Samples) >= 2 {
		out.Rates = deriveRates(out.Samples)
	}
	return out
}

// Stop halts the periodic sampler (the published status provider keeps
// serving the frozen ring). Safe to call more than once; nil-safe.
func (h *History) Stop() {
	if h == nil {
		return
	}
	h.stopOnce.Do(func() { close(h.stop) })
}

// deriveRates computes per-second counter rates between consecutive
// samples for every counter present in the newest sample. A negative raw
// delta means the counter reset between the two samples (registry swap,
// process restart behind the same address); per the Prometheus rate()
// convention the post-reset value counts as the growth since the reset —
// the best lower bound available — and the rate is clamped at zero, so
// `bitmapctl top` sparklines never dip below the axis.
func deriveRates(samples []HistorySample) map[string][]float64 {
	last := samples[len(samples)-1].Counters
	rates := make(map[string][]float64, len(last))
	for name := range last {
		series := make([]float64, len(samples)-1)
		for i := 1; i < len(samples); i++ {
			dt := float64(samples[i].UnixNs-samples[i-1].UnixNs) / 1e9
			if dt <= 0 {
				continue
			}
			cur := float64(samples[i].Counters[name])
			d := cur - float64(samples[i-1].Counters[name])
			if d < 0 {
				d = cur // counter reset: growth restarts from zero
			}
			if d < 0 {
				d = 0
			}
			series[i-1] = d / dt
		}
		rates[name] = series
	}
	return rates
}
