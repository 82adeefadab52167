package index

import (
	"time"

	"insitubits/internal/telemetry"
)

// tel holds the package's telemetry handles: build volume/cost, the
// compressed-vs-raw ratio inputs and the histogram cache traffic. Nil-safe; bound to telemetry.Default at init.
var tel struct {
	builds     *telemetry.Counter   // indexes completed (any build path)
	bins       *telemetry.Counter   // bitvectors those indexes hold
	values     *telemetry.Counter   // float64 values indexed
	idRuns     *telemetry.Counter   // runs of equal bin ids the build scans found
	compressed *telemetry.Counter   // compressed bytes produced
	buildNs    *telemetry.Histogram // wall time of FromRuns, the second half of every build
	cacheHits  *telemetry.Counter   // cached per-bin count lookups
}

// SetTelemetry (re)binds the package's instruments to a registry; nil
// disables them.
func SetTelemetry(r *telemetry.Registry) {
	tel.builds = r.Counter("index.builds")
	tel.bins = r.Counter("index.bins_built")
	tel.values = r.Counter("index.values_indexed")
	tel.idRuns = r.Counter("index.id_runs")
	tel.compressed = r.Counter("index.compressed_bytes")
	tel.buildNs = r.Histogram("index.build_ns")
	tel.cacheHits = r.Counter("index.count_cache_hits")
}

func init() { SetTelemetry(telemetry.Default) }

// buildStart reads the clock only when build times are being recorded.
func buildStart() time.Time {
	if tel.buildNs == nil {
		return time.Time{}
	}
	return time.Now()
}

// recordBuild accounts one completed index; a non-zero start (buildStart)
// also records the build's wall time.
func recordBuild(x *Index, start time.Time) {
	if tel.builds == nil {
		return
	}
	tel.builds.Inc()
	tel.bins.Add(int64(x.Bins()))
	tel.values.Add(int64(x.n))
	tel.compressed.Add(int64(x.SizeBytes()))
	if !start.IsZero() {
		tel.buildNs.Record(time.Since(start).Nanoseconds())
	}
}
