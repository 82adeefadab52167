// Package insitubits is a Go reproduction of "In-Situ Bitmaps Generation and
// Efficient Data Analysis based on Bitmaps" (Su, Wang, Agrawal — HPDC 2015).
//
// It provides, as one coherent library:
//
//   - WAH-compressed bitvectors with in-place streaming compression
//     (the paper's Algorithm 1) and compressed bitwise operations;
//   - binned, multi-level bitmap indices over floating-point arrays;
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
	"insitubits/internal/profiling"
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
	"insitubits/internal/zorder"
)

// --- Telemetry (internal/telemetry) ---

// TelemetryRegistry names and owns a set of instruments (counters, gauges,
// histograms, span tracers) and exports them as JSON, expvar, or over the
// debug HTTP server. See docs/OBSERVABILITY.md for the metric catalog.
type (
	TelemetryRegistry    = telemetry.Registry
	TelemetryCounter     = telemetry.Counter
	TelemetryGauge       = telemetry.Gauge
	TelemetryHistogram   = telemetry.Histogram
	TelemetryTracer      = telemetry.Tracer
	TelemetrySpan        = telemetry.Span
	TelemetrySnapshot    = telemetry.Snapshot
	TelemetryDebugServer = telemetry.DebugServer
)

// Telemetry is the process-wide registry every instrumented package reports
// into by default; `Telemetry.ServeDebug(addr)` is what the CLIs run behind
// -debug-addr.
var (
	Telemetry            = telemetry.Default
	NewTelemetryRegistry = telemetry.NewRegistry
	NewTelemetryTracer   = telemetry.NewTracer
)

// PipelineTracerName is the registry key the in-situ pipeline attaches its
// per-run span tracer under.
const PipelineTracerName = insitu.TracerName

// --- Identity tracing (internal/telemetry) ---

// TraceRecorder collects identity-carrying request traces: each traced
// query or pipeline step gets a TraceID/SpanID span tree, head-sampled and
// kept in a fixed-size ring, fetchable from /debug/traces as plain JSON,
// Chrome trace-event JSON, or OTLP-shaped JSON. Distinct from the aggregate
// TelemetryTracer, which only keeps per-phase totals.
type (
	TraceRecorder = telemetry.TraceRecorder
	TraceConfig   = telemetry.TraceConfig
	Trace         = telemetry.Trace
	TraceSpan     = telemetry.TraceSpan
	TraceStats    = telemetry.TraceStats
	ActiveSpan    = telemetry.ActiveSpan
)

// SetTraceRecorder installs (or, with nil, removes) the process-wide trace
// recorder the context-free entry points start traces on; StartSpan is how
// callers open (or join) a trace, and TraceIDOf reads the trace identity a
// context carries.
var (
	NewTraceRecorder     = telemetry.NewTraceRecorder
	SetTraceRecorder     = telemetry.SetTraceRecorder
	DefaultTraceRecorder = telemetry.DefaultTraceRecorder
	StartSpan            = telemetry.StartSpan
	SpanFromContext      = telemetry.SpanFromContext
	ContextWithSpan      = telemetry.ContextWithSpan
	TraceIDOf            = telemetry.TraceIDOf
	NewOTLPFileSink      = telemetry.NewOTLPFileSink
)

// RunStatus is the live pipeline snapshot published while a run is in
// flight, served as JSON at /debug/run and rendered by `bitmapctl top`.
type (
	RunStatus      = insitu.RunStatus
	RunPhaseStatus = insitu.PhaseStatus
)

// PipelineRunStatusName is the registry status key the live RunStatus is
// published under.
const PipelineRunStatusName = insitu.RunStatusName

// --- Compressed bitvectors (internal/bitvec, internal/codec) ---

// Bitmap is the codec-independent compressed bitmap interface every
// analysis layer operates on: AND/OR, AND- and XOR-counts, population counts
// and range counts on the compressed form, plus decode-free run iteration.
// Two codecs implement it: BitVector (WAH) and BBC.
type Bitmap = bitvec.Bitmap

// BitVector is a WAH-compressed bitvector supporting AND/OR, AND/XOR counts,
// population counts and range counts directly on the compressed form.
type BitVector = bitvec.Vector

// BitAppender builds a BitVector incrementally, one 31-bit segment at a
// time, merging fills in place (the paper's Algorithm 1 primitive).
type BitAppender = bitvec.Appender

// BBC is a byte-aligned compressed bitmap whose logical ops merge byte
// runs on the compressed stream.
type BBC = bitvec.BBC

// Codec names a bitmap encoding; CodecAuto is the adaptive per-bin policy.
type Codec = codec.ID

// Available codecs. CodecAuto keeps, per bin at build time, whichever of
// the two run-length codecs encodes it smaller.
const (
	CodecAuto = codec.Auto
	CodecWAH  = codec.WAH
	CodecBBC  = codec.BBC
)

// SegmentBits is the number of logical bits per WAH word (31).
const SegmentBits = bitvec.SegmentBits

// Re-exported bitvec/codec constructors.
var (
	FromBools     = bitvec.FromBools
	FromIndices   = bitvec.FromIndices
	ConcatVectors = bitvec.Concat
	ToBitVector   = bitvec.ToVector
	BBCFromBitmap = bitvec.BBCFromBitmap
	ParseCodec    = codec.Parse
	EncodeBitmap  = codec.Encode
	CodecOf       = codec.Of
)

// --- Binning (internal/binning) ---

// Mapper assigns values to bins; the same Mapper drives bitmap construction
// and the full-data baselines, which is why both paths agree exactly.
type Mapper = binning.Mapper

// UniformBins is an equal-width Mapper.
type UniformBins = binning.Uniform

// ExplicitBins is an arbitrary-edge Mapper.
type ExplicitBins = binning.Explicit

// GroupedBins coarsens a base Mapper into high-level interval bins.
type GroupedBins = binning.Grouped

// Re-exported binning constructors.
var (
	NewUniformBins   = binning.NewUniform
	NewPrecisionBins = binning.NewPrecision
	NewEquiDepthBins = binning.NewEquiDepth
	NewExplicitBins  = binning.NewExplicit
	NewGroupedBins   = binning.NewGrouped
	MinMax           = binning.MinMax
)

// --- Bitmap indices (internal/index) ---

// Index is a bitmap index: one compressed BitVector per value bin, with the
// per-bin counts (the histogram) cached.
type Index = index.Index

// MultiLevelIndex pairs a fine low-level index with derived high-level
// interval vectors (Figure 1 of the paper).
type MultiLevelIndex = index.MultiLevel

// StreamIndexBuilder indexes a value stream chunk by chunk — the in-situ
// generation path.
type StreamIndexBuilder = index.StreamBuilder

// Re-exported index constructors.
var (
	BuildIndex           = index.Build
	BuildIndexCodec      = index.BuildCodec
	BuildIndexAlgorithm1 = index.BuildAlgorithm1
	BuildIndexTwoPhase   = index.BuildTwoPhase
	BuildIndexParallel   = index.BuildParallel
	BuildMultiLevel      = index.BuildMultiLevel
	NewStreamIndex       = index.NewStreamBuilder
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
	Histogram             = metrics.Histogram
	JointHistogram        = metrics.JointHistogram
	JointHistogramBitmaps = metrics.JointHistogramBitmaps
	Entropy               = metrics.Entropy
	MutualInformation     = metrics.MutualInformation
	ConditionalEntropy    = metrics.ConditionalEntropy
	EMDCount              = metrics.EMDCount
	EMDSpatialData        = metrics.EMDSpatialData
	EMDSpatialBitmaps     = metrics.EMDSpatialBitmaps
	PairFromData          = metrics.PairFromData
	PairFromBitmaps       = metrics.PairFromBitmaps
	NewCFP                = metrics.NewCFP
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

// FixedLengthPartitioning and InfoVolumePartitioning are the paper's two
// interval partitioners.
type (
	FixedLengthPartitioning = selection.FixedLength
	InfoVolumePartitioning  = selection.InfoVolume
)

// Re-exported selection API. SelectTimeSteps is the paper's greedy
// algorithm; SelectTimeStepsDP the dynamic-programming alternative it
// references (offline only).
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
	Mine                  = mining.Mine
	MineParallel          = mining.MineParallel
	MineFullData          = mining.MineFullData
	MergeFindings         = mining.MergeFindings
	DefaultValueThreshold = mining.DefaultValueThreshold
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
	SubsetBits       = query.Bits
	SubsetCount      = query.Count
	SubsetSum        = query.Sum
	SubsetMean       = query.Mean
	SubsetMinMax     = query.MinMax
	SubsetQuantile   = query.Quantile
	SumMasked        = query.SumMasked
	MeanMasked       = query.MeanMasked
	CorrelationQuery = query.Correlation
	NewMaskedIndex   = query.NewMasked
)

// --- Query EXPLAIN/ANALYZE and slow-query log (internal/query) ---

// QueryProfile is the plan-profile tree an EXPLAIN or ANALYZE run returns:
// per-operator cost accounting (bins touched, words scanned split into
// fills and literals, bytes decoded, output shape) plus wall time for
// ANALYZE. QueryTopK keeps the K slowest profiles seen.
type (
	QueryProfile  = query.Profile
	QueryPlanNode = query.Node
	QueryCost     = query.Cost
	QueryOp       = query.Op
	QueryTopK     = query.TopK
)

// Query operators a QueryRequest can name.
const (
	QueryOpBits        = query.OpBits
	QueryOpCount       = query.OpCount
	QueryOpSum         = query.OpSum
	QueryOpMean        = query.OpMean
	QueryOpQuantile    = query.OpQuantile
	QueryOpMinMax      = query.OpMinMax
	QueryOpCorrelation = query.OpCorrelation
)

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

// Re-exported EXPLAIN/ANALYZE API. ExplainQuery estimates cost from the
// index's per-bin stats without executing; the *Analyze variants execute
// and return the measured profile alongside the normal result.
var (
	ExplainQuery            = query.Explain
	ExplainCorrelationQuery = query.ExplainCorrelation
	ParseQueryOp            = query.ParseOp
	SubsetBitsAnalyze       = query.BitsAnalyze
	SubsetCountAnalyze      = query.CountAnalyze
	SubsetSumAnalyze        = query.SumAnalyze
	SubsetMeanAnalyze       = query.MeanAnalyze
	SubsetQuantileAnalyze   = query.QuantileAnalyze
	SubsetMinMaxAnalyze     = query.MinMaxAnalyze
	SumMaskedAnalyze        = query.SumMaskedAnalyze
	CorrelationAnalyze      = query.CorrelationAnalyze
	SetSlowQueryLog         = query.SetSlowLog
	NewQueryTopK            = query.NewTopK
)

// --- Query planner and materialized-bitmap cache (internal/query, internal/bitcache) ---

// BitmapCache is a byte-bounded LRU of materialized bitmaps (subset ORs,
// range indicators, mining joints) shared by the query planner, correlation
// mining, and the metrics AND formulation. Keys embed the owning index
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
// every query and mining run consults (nil uninstalls — caching is opt-in
// and off by default); WithBitmapCache overrides the cache per request via
// context.
var (
	NewBitmapCache        = bitcache.New
	SetDefaultBitmapCache = bitcache.SetDefault
	DefaultBitmapCache    = bitcache.Default
	WithBitmapCache       = query.WithCache
)

// --- Workload capture, replay, and metrics history (internal/qlog, internal/replay, internal/telemetry) ---

// QueryLogWriter appends one checksummed QueryLogRecord per executed query
// to a workload log (the .isql format); QueryLogHealth is the writer's
// live health snapshot (records, drops, queue depth), published under the
// "qlog" status key and embedded in /healthz. WorkloadSummary is the
// analyzer's report: per-op mix, hot bins, operand arity/selectivity
// distributions, and the repeat ratio that bounds cache-hit potential.
type (
	QueryLogWriter       = qlog.Writer
	QueryLogRecord       = qlog.Record
	QueryLogHealth       = qlog.Health
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
	ActiveQueryLog  = qlog.Active
	ReadQueryLog    = qlog.ReadLog
	AnalyzeWorkload = qlog.Analyze
)

// QueryLogStatusName is the registry status key the active workload-log
// writer publishes its health under.
const QueryLogStatusName = qlog.StatusName

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
var (
	StartMetricsHistory = telemetry.StartHistory
	NewMetricsHistory   = telemetry.NewHistory
)

// MetricsHistoryStatusName is the registry status key a started history
// publishes its dump under.
const MetricsHistoryStatusName = telemetry.HistoryStatusName

// MetricExemplar is one traced sample a latency histogram retains; the
// OpenMetrics exposition on /metrics attaches it to the matching
// histogram bucket so a slow bucket links to /debug/traces?id=.
type MetricExemplar = telemetry.Exemplar

// --- Continuous profiling (internal/profiling) ---

// ProfilingConfig configures the background profile collector;
// ProfileSnapshotMeta describes one captured snapshot (stamped with the
// in-situ run's generation/phase/step and the metrics-history cursor);
// ProfileTopReport is the symbolized top/diff view /debug/profiles and
// `bitmapctl profile` serve; Profile/ProfileFuncValue/ProfileLabelValue
// are the parsed pprof views behind it; ProfilingStatus is the
// collector's live status (the "profiling" registry status key).
type (
	ProfilingConfig     = profiling.Config
	ProfileCollector    = profiling.Collector
	ProfileSnapshot     = profiling.Snapshot
	ProfileSnapshotMeta = profiling.SnapshotMeta
	ProfileTopReport    = profiling.TopReport
	Profile             = profiling.Profile
	ProfileFuncValue    = profiling.FuncValue
	ProfileLabelValue   = profiling.LabelValue
	ProfilingStatus     = profiling.Status
	ProfilingRunInfo    = profiling.RunInfo
)

// StartProfiling starts the continuous collector (and enables the pprof
// label plane); ParseProfile decodes a gzipped pprof profile without
// external dependencies; DiffProfiles is the symbolized delta between two
// parsed profiles; ProfilingEnabled/SetProfilingEnabled expose the label
// gate on its own (one atomic load on the query path when off).
var (
	StartProfiling      = profiling.Start
	ParseProfile        = profiling.Parse
	DiffProfiles        = profiling.Diff
	ProfilingEnabled    = profiling.Enabled
	SetProfilingEnabled = profiling.SetEnabled
	ProfileWithLabels   = profiling.Label
	ProfilingKinds      = profiling.Kinds
	ProfilingStatusName = profiling.StatusName
)

// --- Subgroup discovery (internal/subgroup) ---

// SubgroupCondition, Subgroup and SubgroupConfig drive bitmap-based
// subgroup discovery (the SciSD companion analysis).
type (
	SubgroupCondition = subgroup.Condition
	Subgroup          = subgroup.Subgroup
	SubgroupConfig    = subgroup.Config
)

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
	CoreStrategy    = insitu.Strategy
	SharedCores     = insitu.SharedCores
	SeparateCores   = insitu.SeparateCores
)

// Reduction methods.
const (
	MethodBitmaps  = insitu.Bitmaps
	MethodFullData = insitu.FullData
	MethodSampling = insitu.Sampling
)

// PipelineManifestName is the manifest file written into OutputDir.
const PipelineManifestName = insitu.ManifestName

// Manifest records what a pipeline run persisted when
// PipelineConfig.OutputDir is set.
type (
	Manifest     = insitu.Manifest
	ManifestFile = insitu.ManifestFile
)

// Re-exported pipeline API.
var (
	RunPipeline  = insitu.Run
	Calibrate    = insitu.Calibrate
	MemoryModel  = insitu.MemoryModel
	ReadManifest = insitu.ReadManifest
)

// --- Crash safety: run journal, resume, fsck (internal/insitu) ---

// PipelineJournalName is the append-only run journal written into
// OutputDir; PipelineQuarantineDir is where Resume and fsck park damaged
// or stray files instead of deleting them.
const (
	PipelineJournalName   = insitu.JournalName
	PipelineQuarantineDir = insitu.QuarantineDir
)

// JournalRecord is one entry of the run journal; JournalFile is one
// durable artifact a select record covers. FsckReport and FsckIssue
// describe a directory verification.
type (
	JournalRecord = insitu.JournalRecord
	JournalFile   = insitu.JournalFile
	FsckReport    = insitu.FsckReport
	FsckIssue     = insitu.FsckIssue
	FsckOptions   = insitu.FsckOptions
)

// Re-exported crash-safety API: ResumePipeline continues a crashed run
// from its journal; Fsck verifies (and optionally repairs) an output
// directory; ReadJournal/ParseJournal expose the journal itself.
var (
	ResumePipeline = insitu.Resume
	Fsck           = insitu.Fsck
	ReadJournal    = insitu.ReadJournal
	ParseJournal   = insitu.ParseJournal
)

// --- Offline archives (internal/offline) ---

// Archive is a loaded pipeline output directory (manifest + artifacts);
// ArchiveEvolution is one point of a variable's evolution series.
type (
	Archive          = offline.Archive
	ArchiveEvolution = offline.Evolution
)

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
	OceanRegion  = ocean.Region
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

// Re-exported sampler constructors.
var (
	NewStridedSampler = sampling.NewStrided
	NewRandomSampler  = sampling.NewRandom
)

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
// container; the V1/V2 writers keep the legacy layouts producible.
var (
	NewIOStore       = iosim.NewStore
	NewIOStoreWriter = iosim.NewStoreWriter
	WriteIndexFile   = store.WriteIndex
	WriteIndexFileV1 = store.WriteIndexV1
	WriteIndexFileV2 = store.WriteIndexV2
	ReadIndexFile    = store.ReadIndex
	IndexFileSize    = store.IndexSize
	WriteRawFile     = store.WriteRaw
	ReadRawFile      = store.ReadRaw
	RawFileSize      = store.RawSize
	// Ctx variants record a store.* child span when the context carries an
	// identity-trace span (see TraceRecorder); otherwise they cost one
	// context lookup and delegate to the plain functions.
	WriteIndexFileCtx = store.WriteIndexCtx
	ReadIndexFileCtx  = store.ReadIndexCtx
	WriteRawFileCtx   = store.WriteRawCtx
	ReadRawFileCtx    = store.ReadRawCtx
	NewDatasetFile    = store.NewDataset
	WriteDatasetFile  = store.WriteDataset
	ReadDatasetFile   = store.ReadDataset
)

// --- Durability and fault injection (internal/store, internal/iosim) ---

// ErrChecksum is the sentinel wrapped by every checksum failure in the
// container formats; ErrTransientIO and ErrCrashedIO are the fault layer's
// injected error kinds.
var (
	ErrChecksum    = store.ErrChecksum
	ErrTransientIO = iosim.ErrTransient
	ErrCrashedIO   = iosim.ErrCrashed
)

// FaultPlan schedules injected I/O faults; FaultFS applies one to a whole
// filesystem; Backoff parameterizes RetryIO. FileSystem is the pluggable
// filesystem the pipeline writes through (PipelineConfig.FS).
type (
	FaultPlan   = iosim.FaultPlan
	FaultWriter = iosim.FaultWriter
	FaultFS     = iosim.FaultFS
	FileSystem  = iosim.FS
	Backoff     = iosim.Backoff
)

// Re-exported durability API: CRC32C is the checksum every container and
// journal frame uses; AtomicWriteFile stages-fsyncs-renames so files are
// never torn; RetryIO retries transient store errors with backoff.
var (
	CRC32C          = store.CRC32C
	AtomicWriteFile = store.AtomicWrite
	NewFaultFS      = iosim.NewFaultFS
	RetryIO         = iosim.Retry
	IsTransientIO   = iosim.IsTransient
)

// --- Z-order curves (internal/zorder) ---

// ZLayout3 maps a 3-D grid between row-major and Z-order positions.
type ZLayout3 = zorder.Layout3

// Re-exported Z-order API.
var (
	NewZLayout3 = zorder.NewLayout3
	ZEncode3    = zorder.Encode3
	ZDecode3    = zorder.Decode3
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
	ServeEntry         = serve.Entry
	ServeClient        = serve.Client
	ServeQueryRequest  = serve.QueryRequest
	ServeQueryResponse = serve.QueryResponse
	ServeStatusError   = serve.StatusError
	ServeLoadConfig    = serve.LoadConfig
	ServeLoadReport    = serve.LoadReport
)

// NewQueryServer builds a server; RunServeLoad is the open-loop load
// generator the chaos harness and `bitmapctl load` drive; ErrServeShed is
// the admission-queue-full sentinel behind every 429.
var (
	NewQueryServer = serve.New
	// NewServeQueryRequest is the wire form of a QueryRequest.
	NewServeQueryRequest = serve.NewQueryRequest
	RunServeLoad         = serve.RunLoad
	ErrServeShed         = serve.ErrShed
	// ValidTraceID reports whether a string is a well-formed W3C/OTLP
	// 128-bit trace ID; the server uses it to vet propagated IDs.
	ValidTraceID = telemetry.ValidTraceID
)

// ServeStatusName is the registry status key the server publishes its
// admission/shed counters under (read by bitmapctl top and diag).
const ServeStatusName = serve.StatusName
