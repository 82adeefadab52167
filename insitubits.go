// Package insitubits is a Go reproduction of "In-Situ Bitmaps Generation and
// Efficient Data Analysis based on Bitmaps" (Su, Wang, Agrawal — HPDC 2015).
//
// It provides, as one coherent library:
//
//   - WAH-compressed bitvectors with in-place streaming compression
//     (the paper's Algorithm 1) and compressed bitwise operations;
//   - binned bitmap indices over floating-point arrays;
//   - information-theoretic metrics (entropy, mutual information,
//     conditional entropy, Earth Mover's Distance) computed either from raw
//     data or — with identical results — from bitmaps alone;
//   - importance-driven time-step selection (online analysis);
//   - correlation mining between variables (offline analysis, Algorithm 2);
//   - an in-situ pipeline with Shared/Separate core-allocation strategies
//     and the paper's Equation 1/2 calibration;
//   - a multi-node in-situ driver with halo exchange and local/remote
//     storage models;
//   - the simulation workloads the paper evaluates on (Heat3D, a LULESH
//     proxy, a POP-like ocean dataset generator) and the sampling baseline;
//   - the companion bitmap-only analyses the paper cites: subset queries,
//     approximate aggregation with rigorous bounds, interactive correlation
//     queries, incomplete-data analysis and subgroup discovery;
//   - persistence (index, raw-array and multi-variable dataset formats, plus
//     pipeline output manifests) and an offline archive loader for post-hoc
//     analysis of the summarized data.
//
// This package is a facade: it re-exports the stable API of the internal
// packages so applications depend on a single import path. See DESIGN.md
// for the system inventory and EXPERIMENTS.md for the paper-vs-measured
// results; `go run ./cmd/experiments` regenerates every figure.
package insitubits

import (
	"insitubits/internal/binning"
	"insitubits/internal/bitcache"
	"insitubits/internal/bitvec"
	"insitubits/internal/cluster"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/insitu"
	"insitubits/internal/iosim"
	"insitubits/internal/machine"
	"insitubits/internal/metrics"
	"insitubits/internal/mining"
	"insitubits/internal/offline"
	"insitubits/internal/qlog"
	"insitubits/internal/query"
	"insitubits/internal/replay"
	"insitubits/internal/sampling"
	"insitubits/internal/selection"
	"insitubits/internal/serve"
	"insitubits/internal/sim"
	"insitubits/internal/sim/heat3d"
	"insitubits/internal/sim/lulesh"
	"insitubits/internal/sim/ocean"
	"insitubits/internal/store"
	"insitubits/internal/subgroup"
	"insitubits/internal/telemetry"
)

// --- Telemetry (internal/telemetry) ---

// TelemetryRegistry names and owns a set of instruments (counters, gauges,
// histograms, span tracers) and exports them as JSON, Prometheus text, or
// over the debug HTTP server. See docs/OBSERVABILITY.md for the metric catalog.
type (
	TelemetryRegistry    = telemetry.Registry
	TelemetryDebugServer = telemetry.DebugServer
)

// Telemetry is the process-wide registry every instrumented package reports
// into by default; `Telemetry.ServeDebug(addr)` is what the CLIs run behind
// -debug-addr.
var (
	Telemetry            = telemetry.Default
	NewTelemetryRegistry = telemetry.NewRegistry
)

// --- Identity tracing (internal/telemetry) ---

// TraceRecorder collects identity-carrying request traces: each traced
// query or pipeline step gets a TraceID/SpanID span tree, head-sampled and
// kept in a fixed-size ring, fetchable as JSON from /debug/traces. Distinct
// from the registry's span tracers, which only keep per-phase totals.
type (
	TraceRecorder = telemetry.TraceRecorder
	TraceConfig   = telemetry.TraceConfig
	ActiveSpan    = telemetry.ActiveSpan
)

// SetTraceRecorder installs (or, with nil, removes) the process-wide trace
// recorder the context-free entry points start traces on; StartSpan is how
// callers open (or join) a trace, and TraceIDOf reads the trace identity a
// context carries.
var (
	NewTraceRecorder = telemetry.NewTraceRecorder
	SetTraceRecorder = telemetry.SetTraceRecorder
	StartSpan        = telemetry.StartSpan
	TraceIDOf        = telemetry.TraceIDOf
)

// RunStatus is the live pipeline snapshot published while a run is in
// flight, served as JSON at /debug/run and rendered by `bitmapctl top`.
type (
	RunStatus      = insitu.RunStatus
	RunPhaseStatus = insitu.PhaseStatus
)

// --- Compressed bitvectors (internal/bitvec, internal/codec) ---

// Bitmap is the codec-independent compressed bitmap interface every
// analysis layer operates on: population counts and range counts on the
// compressed form, OrInto its flat words, and AND/OR, AND- and XOR-counts
// through them. Two codecs implement it: BitVector (WAH) and BBC.
type Bitmap = bitvec.Bitmap

// BitVector is a WAH-compressed bitvector: population counts and range
// counts on the compressed words, and the Bitmap operations.
type BitVector = bitvec.Vector

// BBC is a byte-aligned compressed bitmap, counted and decoded token by
// token on the compressed stream.
type BBC = bitvec.BBC

// Codec names a bitmap encoding; ParseCodec("auto") is the adaptive per-bin
// policy, which keeps, per bin at build time, whichever of the two
// run-length codecs encodes it smaller.
type Codec = codec.ID

// The two stored codecs.
const (
	CodecWAH = codec.WAH
	CodecBBC = codec.BBC
)

// SegmentBits is the number of logical bits per WAH word (31).
const SegmentBits = bitvec.SegmentBits

// Re-exported bitvec/codec constructors.
var (
	FromBools     = bitvec.FromBools
	FromIndices   = bitvec.FromIndices
	BBCFromBitmap = bitvec.BBCFromBitmap
	ParseCodec    = codec.Parse
	EncodeBitmap  = codec.Encode
)

// --- Binning (internal/binning) ---

// Mapper assigns values to bins; the same Mapper drives bitmap construction
// and the full-data baselines, which is why both paths agree exactly.
type Mapper = binning.Mapper

// UniformBins is an equal-width Mapper.
type UniformBins = binning.Uniform

// ExplicitBins is an arbitrary-edge Mapper.
type ExplicitBins = binning.Explicit

// Re-exported binning constructors.
var (
	NewUniformBins   = binning.NewUniform
	NewEquiDepthBins = binning.NewEquiDepth
	NewExplicitBins  = binning.NewExplicit
	MinMax           = binning.MinMax
)

// --- Bitmap indices (internal/index) ---

// Index is a bitmap index: one compressed BitVector per value bin, with the
// per-bin counts (the histogram) cached.
type Index = index.Index

// MaxIndexBins is the most bins an index holds: two bytes address a bin.
const MaxIndexBins = index.MaxIDBins

// Re-exported index constructors.
var (
	BuildIndex           = index.Build
	BuildIndexCodec      = index.BuildCodec
	BuildIndexAlgorithm1 = index.BuildAlgorithm1
	BuildIndexTwoPhase   = index.BuildTwoPhase
	BuildIndexParallel   = index.BuildParallel
	DecodeBinIDs         = index.DecodeBinIDs
)

// --- Metrics (internal/metrics) ---

// PairMetrics bundles the pairwise metrics (entropies, mutual information,
// conditional entropies) of two variables or time-steps.
type PairMetrics = metrics.Pair

// CFP is the cumulative frequency plot used for accuracy-loss reporting.
type CFP = metrics.CFP

// Re-exported metric functions; the *Bitmaps variants compute identical
// values from indices alone.
var (
	Histogram         = metrics.Histogram
	JointHistogram    = metrics.JointHistogram
	Entropy           = metrics.Entropy
	MutualInformation = metrics.MutualInformation
	EMDCount          = metrics.EMDCount
	EMDSpatialData    = metrics.EMDSpatialData
	EMDSpatialBitmaps = metrics.EMDSpatialBitmaps
	PairFromData      = metrics.PairFromData
	PairFromBitmaps   = metrics.PairFromBitmaps
	NewCFP            = metrics.NewCFP
)

// --- Time-step selection (internal/selection) ---

// Summary is a time-step's analyzable representation (raw data or bitmaps).
type Summary = selection.Summary

// SelectionResult reports the chosen steps and scores.
type SelectionResult = selection.Result

// SelectionMetric picks the correlation measure for selection.
type SelectionMetric = selection.Metric

// Selection metrics.
const (
	MetricConditionalEntropy = selection.ConditionalEntropy
	MetricEMDCount           = selection.EMDCount
	MetricEMDSpatial         = selection.EMDSpatial
)

// Re-exported selection API. SelectTimeSteps is the paper's greedy
// algorithm over fixed-length intervals; SelectTimeStepsDP the
// dynamic-programming alternative it references (offline only).
var (
	SelectTimeSteps     = selection.Select
	SelectTimeStepsDP   = selection.SelectDP
	SelectionChainScore = selection.ChainScore
	NewDataSummary      = selection.NewDataSummary
	NewBitmapSummary    = selection.NewBitmapSummary
)

// --- Correlation mining (internal/mining) ---

// MiningConfig parameterizes Algorithm 2 (unit size and the T/T' thresholds).
type MiningConfig = mining.Config

// Finding is one mined high-correlation (value pair, spatial unit).
type Finding = mining.Finding

// MinedRegion is a run of adjacent high-correlation spatial units merged
// into one contiguous block.
type MinedRegion = mining.Region

// Re-exported mining API.
var (
	Mine          = mining.Mine
	MineParallel  = mining.MineParallel
	MineFullData  = mining.MineFullData
	MergeFindings = mining.MergeFindings
)

// --- Bitmap-only queries and aggregation (internal/query) ---

// QuerySubset selects elements by value and/or spatial range; Aggregate
// carries an estimate with rigorous bin-edge bounds.
type (
	QuerySubset = query.Subset
	Aggregate   = query.Aggregate
	// MaskedIndex pairs an index with a validity bitvector for
	// incomplete-data analysis.
	MaskedIndex = query.Masked
)

// Re-exported query API — all of it consumes indices only.
var (
	SubsetCount      = query.Count
	SubsetBits       = query.Bits
	SubsetSum        = query.Sum
	SubsetMean       = query.Mean
	SubsetMinMax     = query.MinMax
	SubsetQuantile   = query.Quantile
	CorrelationQuery = query.Correlation
	NewMaskedIndex   = query.NewMasked
)

// --- Query EXPLAIN/ANALYZE and slow-query log (internal/query) ---

// QueryProfile is the plan-profile tree an EXPLAIN or ANALYZE run returns:
// per-operator cost accounting (bins touched, words scanned split into
// fills and literals, bytes decoded, output shape) plus wall time for
// ANALYZE.
type (
	QueryProfile = query.Profile
	QueryOp      = query.Op
)

// QueryOpCorrelation is the pair operator a QueryRequest can name (the
// others parse with ParseQueryOp).
const QueryOpCorrelation = query.OpCorrelation

// QueryRequest is one replayable query — operator, subset(s), quantile —
// and QueryAnswer its result, with the one canonical Digest the workload
// log records, replay compares and the query server stamps on responses.
// RunQuery executes a request (xb is the correlation's second index, nil
// otherwise), AnalyzeQuery also returns the measured profile, and
// ExplainQueryRequest estimates its plan without executing; the typed
// Subset*/CorrelationQuery entry points are the same requests spelled out.
type (
	QueryRequest = query.Request
	QueryAnswer  = query.Answer
)

var (
	RunQuery            = query.Run
	AnalyzeQuery        = query.Analyze
	ExplainQueryRequest = query.ExplainRequest
)

// ParseQueryOp reads an operator name; SetSlowQueryLog installs the
// slow-query log every query entry point reports to.
var (
	ParseQueryOp    = query.ParseOp
	SetSlowQueryLog = query.SetSlowLog
)

// --- Query planner and materialized-bitmap cache (internal/query, internal/bitcache) ---

// BitmapCache is a byte-bounded LRU of materialized bitmaps: the root
// results (subset ORs, range masks) the query executor caches, in-process
// or behind `insitu-serve -cache-mb`. Keys embed the owning index
// generations, and the in-situ pipeline invalidates superseded generations
// when it publishes a new step, so hits are always sound. BitmapCacheStats
// is its counter snapshot, published at /debug/cache and as bitcache.*
// Prometheus series.
type (
	BitmapCache      = bitcache.Cache
	BitmapCacheStats = bitcache.Stats
)

// Re-exported cache API. NewBitmapCache builds a cache bounded to maxBytes
// (<=0 disables); SetDefaultBitmapCache installs the process-wide cache
// the query executor consults (nil uninstalls — caching is opt-in and off
// by default).
var (
	NewBitmapCache        = bitcache.New
	SetDefaultBitmapCache = bitcache.SetDefault
	DefaultBitmapCache    = bitcache.Default
)

// --- Workload capture, replay, and metrics history (internal/qlog, internal/replay, internal/telemetry) ---

// QueryLogWriter appends one checksummed QueryLogRecord per executed query
// to a workload log (the .isql format); its live health snapshot is
// published under the "qlog" status key and embedded in /healthz.
// WorkloadSummary is the
// analyzer's report: per-op mix, hot bins, operand arity/selectivity
// distributions, and the repeat ratio that bounds cache-hit potential.
type (
	QueryLogWriter       = qlog.Writer
	QueryLogRecord       = qlog.Record
	WorkloadSummary      = qlog.Summary
	WorkloadDistribution = qlog.Distribution
	WorkloadBinCount     = qlog.BinCount
	WorkloadRangeCount   = qlog.RangeCount
)

// CreateQueryLog opens a new workload log; InstallQueryLog makes it the
// process-wide capture target every query entry point appends to (nil
// uninstalls — capture is opt-in and off by default). ReadQueryLog loads a
// log back tolerating a torn tail, and AnalyzeWorkload summarizes one.
var (
	CreateQueryLog  = qlog.Create
	InstallQueryLog = qlog.Install
	ReadQueryLog    = qlog.ReadLog
	AnalyzeWorkload = qlog.Analyze
)

// ReplayWorkload re-executes a captured workload log against an index and
// byte-compares every result digest against the recorded one — the
// cross-codec / cache regression gate behind `bitmapctl replay` and `make
// replay-diff`.
type (
	ReplayOptions = replay.Options
	ReplayResult  = replay.Result
	ReplayReport  = replay.Report
)

var ReplayWorkload = replay.Run

// MetricsHistory samples the registry's counters and gauges into a fixed
// ring so the debug surface can serve a short metric history — the
// sparklines in `bitmapctl top` — without an external scraper.
type (
	MetricsHistory       = telemetry.History
	MetricsHistorySample = telemetry.HistorySample
	MetricsHistoryDump   = telemetry.HistoryDump
)

// StartMetricsHistory publishes and starts a sampler over a registry; the
// ring is served at /debug/metrics/history.
var StartMetricsHistory = telemetry.StartHistory

// --- Subgroup discovery (internal/subgroup) ---

// Subgroup is one finding of bitmap-based subgroup discovery (the SciSD
// companion analysis).
type Subgroup = subgroup.Subgroup

// Re-exported subgroup API.
var (
	DiscoverSubgroups = subgroup.Discover
	DescribeSubgroup  = subgroup.Describe
)

// --- In-situ pipeline (internal/insitu) ---

// PipelineConfig configures one in-situ run; PipelineResult reports it.
type (
	PipelineConfig  = insitu.Config
	PipelineResult  = insitu.Result
	Breakdown       = insitu.Breakdown
	ReductionMethod = insitu.Method
	SharedCores     = insitu.SharedCores
	SeparateCores   = insitu.SeparateCores
)

// Reduction methods.
const (
	MethodBitmaps  = insitu.Bitmaps
	MethodFullData = insitu.FullData
	MethodSampling = insitu.Sampling
)

// Re-exported pipeline API.
var (
	RunPipeline = insitu.Run
	Calibrate   = insitu.Calibrate
	SplitCores  = insitu.SplitCores
	MemoryModel = insitu.MemoryModel
)

// --- Crash safety: run journal, resume, fsck (internal/insitu) ---

// PipelineQuarantineDir is where Resume and fsck park damaged or stray
// files instead of deleting them.
const PipelineQuarantineDir = insitu.QuarantineDir

// FsckReport describes a directory verification; FsckOptions configures
// one.
type (
	FsckReport  = insitu.FsckReport
	FsckOptions = insitu.FsckOptions
)

// Re-exported crash-safety API: ResumePipeline continues a crashed run
// from its journal; Fsck verifies (and optionally repairs) an output
// directory.
var (
	ResumePipeline = insitu.Resume
	Fsck           = insitu.Fsck
)

// --- Offline archives (internal/offline) ---

// Archive is the committed steps of a pipeline output directory, read
// through its journal.
type Archive = offline.Archive

// LoadArchive reads a pipeline's OutputDir back for offline analysis.
var LoadArchive = offline.Load

// --- Cluster driver (internal/cluster) ---

// ClusterConfig configures a multi-node in-situ run; ClusterResult reports it.
type (
	ClusterConfig = cluster.Config
	ClusterResult = cluster.Result
)

// Cluster reduction methods.
const (
	ClusterBitmaps  = cluster.Bitmaps
	ClusterFullData = cluster.FullData
)

// RunCluster executes a multi-node in-situ experiment.
var RunCluster = cluster.Run

// --- Simulations (internal/sim/...) ---

// Simulator is the workload abstraction the pipeline drives.
type Simulator = sim.Simulator

// Field is one named output array of a time-step.
type Field = sim.Field

// Heat3D is the heat-diffusion workload; Lulesh the shock-hydro proxy;
// OceanDataset the POP-substitute multivariable dataset.
type (
	Heat3D       = heat3d.Sim
	Lulesh       = lulesh.Sim
	OceanDataset = ocean.Dataset
)

// FeedSimulator adapts an external simulation loop to the pipeline: the
// producer pushes per-step fields into the channel NewFeedSimulator
// returns.
type FeedSimulator = sim.FeedSimulator

// Re-exported workload constructors.
var (
	NewHeat3D        = heat3d.New
	NewLulesh        = lulesh.New
	GenerateOcean    = ocean.Generate
	NewFeedSimulator = sim.NewFeed
)

// --- Sampling baseline (internal/sampling) ---

// Sampler keeps a fixed element subset of every array (the §5.5 baseline).
type Sampler = sampling.Sampler

// NewRandomSampler keeps a seeded random subset.
var NewRandomSampler = sampling.NewRandom

// --- Storage (internal/store, internal/iosim, internal/machine) ---

// IOStore is a bandwidth-modelled storage device.
type IOStore = iosim.Store

// MachineProfile describes one of the paper's testbed node types.
type MachineProfile = machine.Profile

// The paper's testbeds.
var (
	Xeon       = machine.Xeon
	MIC        = machine.MIC
	OakleyNode = machine.OakleyNode
)

// DatasetFile is the multi-variable container format (the reproduction's
// NetCDF stand-in).
type DatasetFile = store.Dataset

// Re-exported storage API. WriteIndexFile emits the v3 checksummed
// container, the one layout ReadIndexFile accepts.
// ReadIndexFileCtx records a store.* child span when the context carries an
// identity-trace span (see TraceRecorder).
var (
	NewIOStore       = iosim.NewStore
	WriteIndexFile   = store.WriteIndex
	ReadIndexFile    = store.ReadIndex
	IndexFileSize    = store.IndexSize
	WriteRawFile     = store.WriteRaw
	ReadRawFile      = store.ReadRaw
	RawFileSize      = store.RawSize
	ReadIndexFileCtx = store.ReadIndexCtx
	NewDatasetFile   = store.NewDataset
	WriteDatasetFile = store.WriteDataset
	ReadDatasetFile  = store.ReadDataset
)

// --- Query serving (internal/serve) ---

// QueryServer is the hardened concurrent query daemon behind cmd/insitu-serve:
// it loads immutable index files once (shared, read-only, generation-stamped),
// executes the full query API over HTTP/JSON with per-request deadlines,
// admission control (bounded queue, 429 + Retry-After shedding), per-request
// panic isolation, zero-downtime catalog reloads and graceful drain. See
// docs/SERVING.md.
type (
	ServeConfig        = serve.Config
	QueryServer        = serve.Server
	ServeStatus        = serve.Status
	ServeClient        = serve.Client
	ServeQueryRequest  = serve.QueryRequest
	ServeQueryResponse = serve.QueryResponse
	ServeLoadConfig    = serve.LoadConfig
	ServeLoadReport    = serve.LoadReport
)

// NewQueryServer builds a server; RunServeLoad is the open-loop load
// generator the chaos harness and `bitmapctl load` drive.
var (
	NewQueryServer = serve.New
	// NewServeQueryRequest is the wire form of a QueryRequest.
	NewServeQueryRequest = serve.NewQueryRequest
	RunServeLoad         = serve.RunLoad
)
