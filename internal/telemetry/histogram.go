package telemetry

import (
	"math/bits"
	"sync"
	"time"
)

// Histogram bucketing: values in [0,16) are exact; larger values land in
// log-scaled buckets keeping the top 4 bits below the leading 1, so any
// bucket's width is at most 1/16 (6.25%) of its lower edge. That bounds the
// error of every exported quantile, which is what the accuracy tests
// assert. Values are int64 because everything recorded here is a duration
// in nanoseconds or a size in bytes; negatives clamp to bucket zero.
const (
	histShards  = 8
	exactLimit  = 16 // values below this get exact buckets
	subBits     = 4  // resolution bits below the leading 1
	subBuckets  = 1 << subBits
	histBuckets = exactLimit + (63-subBits)*subBuckets
)

// Histogram is a lock-striped, log-bucketed distribution of int64 samples.
// Recording locks one of 8 shards chosen by a hash of the value, so
// concurrent recorders of different values rarely contend; snapshots merge
// all shards. Nil-safe: Record on a nil handle is a no-op.
type Histogram struct {
	name   string
	shards [histShards]histShard

	// Exemplars: one slot per value magnitude band (8 bits of bit-length
	// each), holding the most recent trace-ID-stamped sample in that band.
	// Only RecordExemplar calls with a non-empty trace ID touch them, so
	// untraced recording pays nothing.
	exMu sync.Mutex
	ex   [exemplarSlots]Exemplar
}

// exemplarSlots bands the int64 value range by bit length (8 bits per
// slot), so exemplars spread across magnitudes — for latencies that is
// roughly sub-µs, µs, ms, s bands — instead of the newest sample evicting
// everything.
const exemplarSlots = 8

// Exemplar links one recorded sample to the trace it came from: the
// /telemetry snapshot lists a histogram's exemplars beside its summary, so
// a slow sample leads to /debug/traces?id=.
type Exemplar struct {
	Value   int64  `json:"value"`
	TraceID string `json:"trace_id"`
	UnixNs  int64  `json:"unix_ns"`
}

// exemplarSlot maps a value to its magnitude band.
func exemplarSlot(v int64) int {
	if v <= 0 {
		return 0
	}
	return (bits.Len64(uint64(v)) - 1) / 8
}

// RecordExemplar adds one sample like Record and, when traceID is
// non-empty, remembers the (value, trace ID) pair as the exemplar for the
// value's magnitude band. Nil-safe; with an empty traceID it is exactly
// Record.
func (h *Histogram) RecordExemplar(v int64, traceID string) {
	if h == nil {
		return
	}
	h.Record(v)
	if traceID == "" {
		return
	}
	slot := exemplarSlot(v)
	h.exMu.Lock()
	h.ex[slot] = Exemplar{Value: v, TraceID: traceID, UnixNs: time.Now().UnixNano()}
	h.exMu.Unlock()
}

// exemplars returns the populated exemplar slots, ascending by value.
func (h *Histogram) exemplars() []Exemplar {
	if h == nil {
		return nil
	}
	var out []Exemplar
	h.exMu.Lock()
	for _, e := range h.ex {
		if e.TraceID != "" {
			out = append(out, e)
		}
	}
	h.exMu.Unlock()
	return out
}

type histShard struct {
	mu      sync.Mutex
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [histBuckets]int64
	_       [32]byte // pad shards apart to avoid false sharing
}

func newHistogram(name string) *Histogram {
	return &Histogram{name: name}
}

// Name returns the histogram's registry name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v < exactLimit {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	b := bits.Len64(uint64(v))                           // ≥ 5 here
	sub := int(v>>(uint(b)-1-subBits)) &^ (1 << subBits) // top subBits bits below the leading 1
	return exactLimit + (b-1-subBits)*subBuckets + sub
}

// bucketBounds returns the inclusive [lo, hi] value range of a bucket.
func bucketBounds(idx int) (lo, hi int64) {
	if idx < exactLimit {
		return int64(idx), int64(idx)
	}
	idx -= exactLimit
	shift := uint(idx / subBuckets) // = bitlen-1-subBits
	sub := int64(idx % subBuckets)
	lo = (int64(subBuckets) + sub) << shift
	hi = lo + (int64(1) << shift) - 1
	return lo, hi
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	// Cheap splitmix-style hash spreads concurrent recorders of different
	// values across shards; identical values share a shard, which is fine —
	// they would contend on the same bucket anyway.
	s := &h.shards[(uint64(v)*0x9E3779B97F4A7C15)>>61]
	s.mu.Lock()
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	s.buckets[bucketOf(v)]++
	s.mu.Unlock()
}

// HistogramSnapshot is a merged, immutable view of a histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	// Exemplars are trace-linked samples, ascending by value, one per
	// populated magnitude band (see RecordExemplar).
	Exemplars []Exemplar `json:"exemplars,omitempty"`

	buckets []int64
}

// Snapshot merges all shards into one consistent-enough view. (Shards are
// locked one at a time; a snapshot taken during concurrent recording may
// straddle them, which is acceptable for monitoring.)
func (h *Histogram) Snapshot() HistogramSnapshot {
	var snap HistogramSnapshot
	if h == nil {
		return snap
	}
	merged := make([]int64, histBuckets)
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		if s.count > 0 {
			if snap.Count == 0 || s.min < snap.Min {
				snap.Min = s.min
			}
			if snap.Count == 0 || s.max > snap.Max {
				snap.Max = s.max
			}
			snap.Count += s.count
			snap.Sum += s.sum
			for b, c := range s.buckets {
				merged[b] += c
			}
		}
		s.mu.Unlock()
	}
	if snap.Count == 0 {
		return snap
	}
	snap.Mean = float64(snap.Sum) / float64(snap.Count)
	snap.buckets = merged
	snap.P50 = snap.Quantile(0.50)
	snap.P90 = snap.Quantile(0.90)
	snap.P99 = snap.Quantile(0.99)
	snap.Exemplars = h.exemplars()
	return snap
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) as the midpoint of the
// bucket the quantile sample falls into; the true sample is guaranteed
// inside that bucket, so the relative error is bounded by the bucket width
// (≤ 6.25% beyond the exact range). Returns 0 on an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || s.buckets == nil {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(s.Count-1)) + 1 // 1-based, clamped to [1, Count]
	cum := int64(0)
	for b, c := range s.buckets {
		cum += c
		if cum >= rank {
			lo, hi := bucketBounds(b)
			mid := lo + (hi-lo)/2
			// Clamp to observed extremes so quantiles never leave [Min, Max].
			if mid < s.Min {
				mid = s.Min
			}
			if mid > s.Max {
				mid = s.Max
			}
			return mid
		}
	}
	return s.Max
}

// Quantile is a convenience that snapshots and queries in one call.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	return h.Snapshot().Quantile(q)
}
