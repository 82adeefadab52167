GO ?= go

.PHONY: all build test vet race race-hot bench bench-compare bench-quick trace-smoke overhead profile-smoke fuzz-smoke crash-matrix plan-diff replay-diff serve-chaos serve-smoke ci

all: build

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite (bench/ included), so ci
# catches an unformatted one.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race pass focused on the packages with the most lock-free state: the
# query layer (slow-log gate, capture gate, codec counters), the telemetry
# registry (incl. the metrics-history ring), the workload-log writer, the
# profiling label gate + snapshot ring, the query server (admission
# semaphore, catalog generation swaps), the root package (the /healthz
# probe racing a pipeline's concurrent generation publishes), and the
# in-situ write path's goroutines: the parallel map to ids, the two-phase
# parallel build from them and the striped id decode (index), the
# per-worker tallies (metrics), the ids a summary shares between concurrent
# scores (selection), the unit-range workers of mining's second tally,
# which share the two decoded id arrays (mining), and the simulate →
# reduce hand-off of a lent step staged on the simulate side of the
# separate-cores queue — the simulators (sim) and the pipeline's lend,
# staging and queue tests (insitu, by name: its crash matrix stays in
# `race` / `crash-matrix`). ./internal/query/...
# includes the correlation's pooled id array: concurrent requests over two
# index sizes (TestPooledScratchNeverEscapes) and the arrays that requests
# on broken indexes abandon (TestCorrelationOnBrokenPartition).
race-hot:
	$(GO) test -race . ./internal/query/... ./internal/telemetry/ ./internal/qlog/ ./internal/profiling/ ./internal/serve/ ./internal/index/ ./internal/selection/ ./internal/metrics/ ./internal/mining/... ./internal/sim/...
	$(GO) test -race -run 'TestLentStep|TestRunOutputIdenticalAcrossCores|TestStage|TestResumeStages|TestQueueSized|TestCalibrate' ./internal/insitu/

# The repository benchmark (bench/README.md, BENCHMARK.json): one workload
# or all four, untraced end to end and then traced per layer, every
# operation checked against its oracle. OUT appends the report as one line
# to a set file; ten or so such lines per commit are what bench-compare
# judges:
#   make bench WORKLOAD=offline_ocean SEED=1 OUT=cand.jsonl
#   make bench-compare BASE=base.jsonl CAND=cand.jsonl
# The micro-benchmarks stay plain `go test`, e.g. `go test -run '^$$' -bench
# 'BenchmarkNoop|BenchmarkAppendTelemetry|BenchmarkOrInto' -benchmem
# ./internal/telemetry/ ./internal/bitvec/`. The offline read path's
# kernels, on ocean-like clustered bins (1M elements):
# BenchmarkOrInto/{wah,bbc},
# BenchmarkWriteIDsMasked/{wah,bbc}/{1pct,25pct,full} and
# BenchmarkTallyMasked/... (internal/bitvec), and the operator they serve on
# the benchmark's own ocean, BenchmarkCorrelation/{cold,warm}/{spatial,whole}
# (internal/query), and mining: BenchmarkMine and BenchmarkMineParallel4
# (internal/mining), one whole decode-and-tally pass. The in-situ write
# path's
# kernels, on heat3d-shaped data (64³ elements, 160 bins):
# BenchmarkBBCFromBitmap/{sparse,clustered,literal-heavy} and
# BenchmarkWriteIDs/{uint8,uint16,int32}/{wah,bbc} (internal/bitvec),
# BenchmarkEncodeAuto (internal/codec),
# BenchmarkBinInto/{uniform,explicit,interface}/{uint8,uint16}
# (internal/binning), BenchmarkBuildParallelCodec/{1,2}, .../ids/{1,2} and
# BenchmarkBuildFromIDs/{1,2} (internal/index),
# BenchmarkCondEntropyScore/{handed-ids,decoded-ids}/{1,2}
# (internal/selection), BenchmarkStepHandoff/{owned,lent,staged}
# (internal/insitu).
WORKLOAD ?= all
SEED ?= 1
bench:
	bash bench/run.sh -workload $(WORKLOAD) -seed $(SEED) $(if $(OUT),-out $(OUT))

# Applies BENCHMARK.json's bounds to two set files: within / regressed /
# unresolved per workload and metric, against the sets' own spread.
bench-compare:
	bash bench/run.sh compare $(BASE) $(CAND)

# bench/ is a Go module of its own that compiles against internal/..., so
# the root module's build and tests never see it. This vets it and runs its
# unit tests plus the -quick end-to-end smoke of all four workloads (toy
# sizes; the numbers mean nothing, the oracles do).
bench-quick:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# Trace-export roundtrip smoke: the identity-tracing e2e acceptance (slow
# query → trace ID in the slow log → span tree from /debug/traces, Chrome
# export parsed independently) plus both exporter roundtrips.
trace-smoke:
	$(GO) test -run 'TestSlowQueryTraceEndToEnd|TestChromeTraceRoundtrip|TestOTLPJSONRoundtrip' . ./internal/telemetry/

# Timing guards for the observability budgets (docs/OBSERVABILITY.md): < 2%
# for the telemetry hooks on the bitvec append hot loop and for the
# slow-log gate + codec counters on the plain query path with ANALYZE
# disabled, < 5% for the workload-capture path with a qlog writer installed
# (the cost of encoding and digesting every record, plus a margin). Gated
# behind the env var because wall-clock assertions flap on loaded CI hosts;
# run it on a quiet machine. -p 1 runs the packages one at a time: a guard
# must not time its path while another guard's loop holds a core.
# TestAnalyzeOverheadDisabled's measured prologue now includes the
# profiling label gate, and TestDisabledLabelZeroCost pins that gate to a
# single atomic load on its own.
overhead:
	TELEMETRY_OVERHEAD_GUARD=1 $(GO) test -p 1 -count 1 -run 'TestInstrumentationOverhead|TestAnalyzeOverheadDisabled|TestQlogCaptureOverhead|TestDisabledLabelZeroCost' -v ./internal/bitvec/ ./internal/query/ ./internal/profiling/

# Continuous-profiling acceptance (docs/OBSERVABILITY.md "Continuous
# profiling"): capture two CPU snapshots around an index recode under a
# codec-heavy query load and require the symbolized top/diff to name a
# codec word-loop function, plus the parser round-trip suite.
profile-smoke:
	$(GO) test -run 'TestProfileSmoke|TestParse|TestCollectorRingAndHandler' -v ./internal/profiling/

# Short fuzz passes: the untrusted parsers (docs/FORMATS.md) — the
# index-file reader and the run-journal parser — the query oracle property
# (any request, codec and cache state answers exactly as the brute-force
# model over the binned raw array does), the flat kernels under it
# (OrInto, FromFlat, WriteIDs, CountRange and the masked id kernels —
# WriteIDsMasked, TallyMasked × mask shape × id width — × codec against a
# []bool model),
# the run-domain BBC encoder (byte-identical to the expanded-buffer
# model, bounded form exact), the batch bin kernel (BinInto equals the
# mapper's own Bin on any float64 bit pattern, at every width), and mining
# from the bitmaps (Mine and MineParallel equal MineFullData over random
# arrays, bin counts and unit sizes).
# Full corpus exploration is `go test -fuzz <target> ./internal/<pkg>/`.
fuzz-smoke:
	$(GO) test -run xxx -fuzz 'FuzzReadIndex$$' -fuzztime 10s ./internal/store/
	$(GO) test -run xxx -fuzz 'FuzzParseJournal$$' -fuzztime 10s ./internal/insitu/
	$(GO) test -run xxx -fuzz 'FuzzQueryMatchesOracle$$' -fuzztime 10s ./internal/query/
	$(GO) test -run xxx -fuzz 'FuzzFlatKernels$$' -fuzztime 10s ./internal/bitvec/
	$(GO) test -run xxx -fuzz 'FuzzBBCEncode$$' -fuzztime 10s ./internal/bitvec/
	$(GO) test -run xxx -fuzz 'FuzzBinInto$$' -fuzztime 10s ./internal/binning/
	$(GO) test -run xxx -fuzz 'FuzzMineMatchesFullData$$' -fuzztime 10s ./internal/mining/

# The query oracle suite (DESIGN.md "Query planning & caching"): every op
# through the one plan → optimize → execute path — every codec, cache cold
# and warm, every accounting level — must equal the brute-force model over
# the binned raw array exactly; plus EXPLAIN/ANALYZE shape agreement, the
# one-plan-per-request check, the generation-invalidation check, and the
# mining property (Mine = MineParallel = MineFullData) with its
# broken-partition check.
plan-diff:
	$(GO) test -run 'TestPlanned|FuzzQueryMatchesOracle|TestExplainMatchesAnalyzeShape|TestOnePlanPerRequest|TestCacheGenerationInvalidationMidStream|TestMineProperty|TestMineOnBrokenPartition' -v ./internal/query/ ./internal/mining/

# Workload capture/replay regression gate (docs/OBSERVABILITY.md "Workload
# capture & replay"): a captured log must replay with byte-identical result
# digests across both codecs and cache on/off — including against a
# codec-recoded index and from a log written before the planner switch was
# removed — and a tampered digest must fail.
replay-diff:
	$(GO) test -run 'TestReplay|TestCaptureWorkload' -v ./internal/replay/ ./internal/query/ ./internal/serve/

# The serving chaos matrix (docs/SERVING.md "Chaos harness"): overload
# storms against tiny admission limits (zero 5xx, every answer
# digest-verified), slow-loris connections starved out by the read
# deadline, reloads published mid-storm (every answer correct for the
# generation it claims), drain under load, and per-request panic
# isolation — all under the race detector.
serve-chaos:
	$(GO) test -race -run 'TestChaos' -v ./internal/serve/

# The serving smoke gate: a retrying load run against default limits must
# complete with zero errors, zero unrecovered sheds, and digest-stable
# answers.
serve-smoke:
	$(GO) test -race -run 'TestServeSmoke' ./internal/serve/

# The crash-safety acceptance suite (docs/ROBUSTNESS.md): kill a run at
# every recorded write boundary and every mid-write offset, resume, and
# require a byte-identical directory plus a clean fsck — under the race
# detector, together with the fault-injection and fsck corruption tables.
crash-matrix:
	$(GO) test -race -run 'TestCrashMatrix|TestResume|TestTransient|TestWorkerPanic|TestFsck' -v ./internal/insitu/

# `race` already executes every test the named gates above select
# (race-hot, plan-diff, replay-diff, trace-smoke, profile-smoke,
# crash-matrix, serve-chaos, serve-smoke), so ci runs each test once; the
# gates stay as targets for humans chasing one failure.
ci: vet build race overhead fuzz-smoke bench-quick
