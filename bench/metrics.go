package main

import "encoding/json"

// metricDef names one reported number. Bound is set on end-to-end metrics
// only: the share of the parent's median by which the metric may worsen
// before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// runSeconds is how long one contract run measures.
const runSeconds = 20

// The end-to-end metrics are defined on every workload, because the
// contract reports all of them on each. op_ms and op_cpu_ms take the
// workload's own unit of work (see opAlias); README.md has the mapping to
// the per-workload names (insitu_step_ms, query_batch_ms, serve_p50_ms).
//
// The bounds are what this 2-vCPU shared host can hold, not what one would
// like: over ten seeds the timings spread 5-12 % (interquartile range over
// median) on every workload, the seed-independent in-situ ones included,
// because the host's speed drifts by that much over tens of seconds, and the
// in-process workload's peak memory 6 % with GC timing. A bound has to sit
// well clear of that spread or it rejects unchanged code. Bytes are exact.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms", "ms", "lower", 0.25},
	{"op_cpu_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"stored_bytes_ratio", "ratio", "lower", 0.01},
}

// secondary end-to-end metrics exist on one workload each. The contract
// cannot gate them (a gated metric must exist, non-zero, on all four
// workloads), so they are printed by the full report, bounded by `compare`,
// and mirrored as per-layer metrics of the traced run.
var secondary = map[string][]metricDef{
	"offline_ocean": {
		{"offline_mine_ms", "ms", "lower", 0.25},
		{"query_batch_warm_ms", "ms", "lower", 0.25},
	},
	"serve_light": {
		{"serve_qps", "req/s", "higher", 0.25},
		{"serve_p95_ms", "ms", "lower", 0.25},
	},
}

// endToEndFor lists every end-to-end metric a workload's untraced run
// reports: the gated five, then its secondary ones.
func endToEndFor(workload string) []metricDef {
	return append(append([]metricDef(nil), endToEnd...), secondary[workload]...)
}

// opAlias is the name the issue tracker uses for each workload's op_ms.
var opAlias = map[string]string{
	"insitu_heat3d": "insitu_step_ms",
	"insitu_lulesh": "insitu_step_ms",
	"offline_ocean": "query_batch_ms",
	"serve_light":   "serve_p50_ms",
}

// perLayer lists the traced run's metrics, layer by layer (the repo's
// modules). A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"trace.op_ms", "ms", "lower", 0},

	{"sim.step_ms", "ms", "lower", 0},

	{"index.build_ms", "ms", "lower", 0},
	{"index.build_melem_per_s", "Melem/s", "higher", 0},
	{"index.bytes_per_elem", "B/elem", "lower", 0},
	{"index.alloc_mb_per_build", "MB", "lower", 0},

	{"codec.recode_ms", "ms", "lower", 0},
	{"codec.bins_wah", "count", "lower", 0},
	{"codec.bins_bbc", "count", "lower", 0},
	{"codec.bins_dense", "count", "lower", 0},

	{"bitvec.and_ns_per_word", "ns/word", "lower", 0},
	{"bitvec.andcount_ns_per_word", "ns/word", "lower", 0},
	{"bitvec.or_ns_per_word", "ns/word", "lower", 0},
	{"bitvec.xorcount_ns_per_word", "ns/word", "lower", 0},
	{"bitvec.countunits_ns_per_word", "ns/word", "lower", 0},
	{"bitvec.countrange_ns_per_word", "ns/word", "lower", 0},
	{"bitvec.append_ns_per_elem", "ns/elem", "lower", 0},
	{"bitvec.words_total", "count", "lower", 0},

	{"selection.score_ms", "ms", "lower", 0},
	{"metrics.joint_hist_ms", "ms", "lower", 0},
	{"metrics.emd_spatial_ms", "ms", "lower", 0},

	{"store.write_ms", "ms", "lower", 0},
	{"store.write_mb_per_s", "MB/s", "higher", 0},
	{"store.files_per_step", "count", "lower", 0},
	{"store.read_ms", "ms", "lower", 0},
	{"store.read_mb_per_s", "MB/s", "higher", 0},

	{"insitu.self_ms", "ms", "lower", 0},
	{"insitu.overlap_ratio", "ratio", "higher", 0},
	{"insitu.queue_peak", "count", "lower", 0},
	{"insitu.cpu_s", "s", "lower", 0},
	{"insitu.reported_simulate_ms", "ms", "lower", 0},
	{"insitu.reported_reduce_ms", "ms", "lower", 0},
	{"insitu.reported_select_ms", "ms", "lower", 0},
	{"insitu.reported_write_ms", "ms", "lower", 0},

	{"mining.mine_ms", "ms", "lower", 0},
	{"mining.findings", "count", "higher", 0},

	{"query.bits_ms", "ms", "lower", 0},
	{"query.correlation_ms", "ms", "lower", 0},
	{"query.count_us", "us", "lower", 0},
	{"query.sum_us", "us", "lower", 0},
	{"query.quantile_us", "us", "lower", 0},
	{"query.minmax_us", "us", "lower", 0},
	{"query.words_scanned", "count", "lower", 0},
	{"query.explain_us", "us", "lower", 0},
	{"query.batch_warm_ms", "ms", "lower", 0},
	{"query.batch_small_cache_ms", "ms", "lower", 0},

	{"bitcache.hit_ratio", "ratio", "higher", 0},
	{"bitcache.bytes_mb", "MB", "lower", 0},
	{"bitcache.evictions", "count", "lower", 0},
	{"bitcache.small_hit_ratio", "ratio", "higher", 0},

	{"serve.rtt_p50_us", "us", "lower", 0},
	{"serve.handler_p50_us", "us", "lower", 0},
	{"serve.query_p50_us", "us", "lower", 0},
	{"serve.self_us", "us", "lower", 0},
	{"serve.net_us", "us", "lower", 0},
	{"serve.overhead_ratio", "ratio", "lower", 0},
	{"serve.alloc_kb_per_req", "KB/req", "lower", 0},
	{"serve.allocs_per_req", "count", "lower", 0},
	{"serve.qps", "req/s", "higher", 0},
	{"serve.p50_ms", "ms", "lower", 0},
	{"serve.p95_ms", "ms", "lower", 0},
	{"serve.p99_ms", "ms", "lower", 0},
	{"serve.hot_p50_us", "us", "lower", 0},
	{"serve.unique_p50_us", "us", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.cpu_ms_per_kreq", "ms/kreq", "lower", 0},
	{"serve.open_p50_ms", "ms", "lower", 0},
	{"serve.open_p95_ms", "ms", "lower", 0},
	{"serve.open_late_ms", "ms", "lower", 0},
}

// manifest renders BENCHMARK.json from the tables above, so the file at the
// root of the repo and the program cannot drift (TestManifestInSync).
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}
