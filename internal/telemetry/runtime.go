package telemetry

import (
	"math"
	"runtime/metrics"
	"sync"
)

// Runtime-metrics bridge: a pre-snapshot updater that publishes Go
// scheduler, heap, and GC health from the runtime/metrics package as
// ordinary registry instruments. Because it runs inside Snapshot, the
// values flow into the JSON snapshot, the Prometheus exposition, the
// metrics-history ring, and `bitmapctl top` without any of those consumers
// knowing it exists.
//
// Published instruments:
//
//	runtime.goroutines        gauge    live goroutines
//	runtime.heap_live_bytes   gauge    bytes in live heap objects
//	runtime.mem_total_bytes   gauge    total memory mapped by the runtime
//	runtime.gc_cycles         counter  completed GC cycles
//	runtime.gc_pauses         counter  stop-the-world pauses observed
//	runtime.gc_pause_total_ns counter  approximate total pause time
//	                                   (bucket-midpoint sum of the
//	                                   runtime's pause histogram)
const (
	runtimeGoroutines = "runtime.goroutines"
	runtimeHeapLive   = "runtime.heap_live_bytes"
	runtimeMemTotal   = "runtime.mem_total_bytes"
	runtimeGCCycles   = "runtime.gc_cycles"
	runtimeGCPauses   = "runtime.gc_pauses"
	runtimeGCPauseNs  = "runtime.gc_pause_total_ns"
	metricGoroutines  = "/sched/goroutines:goroutines"
	metricHeapObjects = "/memory/classes/heap/objects:bytes"
	metricMemTotal    = "/memory/classes/total:bytes"
	metricGCCycles    = "/gc/cycles/total:gc-cycles"
	metricSchedPauses = "/sched/pauses/total/gc:seconds"
)

// runtimeCollector holds the last-seen cumulative values so the
// counter-shaped metrics advance by deltas.
type runtimeCollector struct {
	mu      sync.Mutex
	samples []metrics.Sample

	goroutines *Gauge
	heapLive   *Gauge
	memTotal   *Gauge
	gcCycles   *Counter
	gcPauses   *Counter
	gcPauseNs  *Counter

	lastCycles  uint64
	lastPauses  uint64
	lastPauseNs float64
}

// EnableRuntimeMetrics registers the runtime-metrics bridge on the
// registry. Safe to call more than once (later calls are no-ops for that
// registry); nil-safe.
func (r *Registry) EnableRuntimeMetrics() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.gauges[runtimeGoroutines] != nil {
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	rc := &runtimeCollector{
		samples: []metrics.Sample{
			{Name: metricGoroutines},
			{Name: metricHeapObjects},
			{Name: metricMemTotal},
			{Name: metricGCCycles},
			{Name: metricSchedPauses},
		},
		goroutines: r.Gauge(runtimeGoroutines),
		heapLive:   r.Gauge(runtimeHeapLive),
		memTotal:   r.Gauge(runtimeMemTotal),
		gcCycles:   r.Counter(runtimeGCCycles),
		gcPauses:   r.Counter(runtimeGCPauses),
		gcPauseNs:  r.Counter(runtimeGCPauseNs),
	}
	r.RegisterUpdater(rc.update)
}

// update refreshes the instruments from one metrics.Read. Serialized so a
// concurrent Snapshot cannot double-apply a delta.
func (rc *runtimeCollector) update() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	metrics.Read(rc.samples)
	for i := range rc.samples {
		s := &rc.samples[i]
		switch s.Name {
		case metricGoroutines:
			if s.Value.Kind() == metrics.KindUint64 {
				rc.goroutines.Set(int64(s.Value.Uint64()))
			}
		case metricHeapObjects:
			if s.Value.Kind() == metrics.KindUint64 {
				rc.heapLive.Set(int64(s.Value.Uint64()))
			}
		case metricMemTotal:
			if s.Value.Kind() == metrics.KindUint64 {
				rc.memTotal.Set(int64(s.Value.Uint64()))
			}
		case metricGCCycles:
			if s.Value.Kind() == metrics.KindUint64 {
				v := s.Value.Uint64()
				if v >= rc.lastCycles {
					rc.gcCycles.Add(int64(v - rc.lastCycles))
				}
				rc.lastCycles = v
			}
		case metricSchedPauses:
			if s.Value.Kind() != metrics.KindFloat64Histogram {
				continue
			}
			count, sumNs := pauseTotals(s.Value.Float64Histogram())
			if count >= rc.lastPauses {
				rc.gcPauses.Add(int64(count - rc.lastPauses))
			}
			if d := sumNs - rc.lastPauseNs; d > 0 {
				rc.gcPauseNs.Add(int64(d))
			}
			rc.lastPauses, rc.lastPauseNs = count, sumNs
		}
	}
}

// pauseTotals reduces the runtime's cumulative pause histogram to a pause
// count and an approximate total in nanoseconds (each bucket contributes
// its midpoint; unbounded edge buckets contribute their finite edge).
func pauseTotals(h *metrics.Float64Histogram) (count uint64, sumNs float64) {
	if h == nil {
		return 0, 0
	}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		count += c
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		if math.IsInf(lo, -1) {
			mid = hi
		}
		if math.IsInf(hi, 1) {
			mid = lo
		}
		sumNs += float64(c) * mid * 1e9
	}
	return count, sumNs
}
