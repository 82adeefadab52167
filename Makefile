GO ?= go

.PHONY: all build test vet race race-hot bench bench-compare bench-pairs bench-quick trace-smoke overhead fuzz-smoke crash-matrix plan-diff replay-diff serve-chaos serve-smoke loc ci

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
# registry (incl. the metrics-history ring and the pprof label gate's
# live-server count), the workload-log writer, the query server (admission
# semaphore, catalog generation swaps), the root package (the /healthz
# probe racing a pipeline's concurrent generation publishes), and the
# in-situ write path's goroutines: the parallel map to ids, the parallel
# scan of them, whose worker run streams it joins, the parallel placement
# of a stream's shares and the striped encode (TestRunListMatchesTwoScans,
# TestBuildFromIDsRunEdges), and the striped id decode (index), the
# per-worker tallies and run merges (metrics: FuzzRunMerge's seeds), the run
# stream a summary decodes once and shares between concurrent scores
# (selection: TestCondEntropyScoreConcurrentCandidates, and
# TestCondEntropyScoreMatchesFullData and TestNodeSplitScoresEqualWhole on
# scanned and decoded streams), the unit-range workers of mining's second tally,
# which share the two decoded id arrays (mining), and the simulate →
# reduce hand-off of a lent step staged on the simulate side of the
# separate-cores queue — the simulators (sim) and the pipeline's lend,
# staging and queue tests (insitu, by name: its crash matrix stays in
# `race` / `crash-matrix`), with the queue-depth accounting the producer and
# consumer share (TestQueueBackpressure) and the phase record both
# strategies' goroutines add into (TestPhaseRecord). ./internal/query/...
# includes the correlation's pooled id array: concurrent requests over two
# index sizes (TestPooledScratchNeverEscapes) and the wrong array a request
# drops (TestCorrelationDropsAWrongIDArray), both again
# with every pass split into one-, two- and seven-word windows on their own
# goroutines (TestExecutorAtForcedWindows). ./internal/index/ includes the
# lazily derived high-level groups: eight first calls racing to build and
# publish one index's groups (TestGroupsConcurrentFirstUse). internal/bitvec, by name, holds
# the window kernels' own checks: adjacent windows of one buffer on
# concurrent goroutines (TestWindowsTileTheWhole), eight first windowed
# calls racing to build one bitmap's skip table
# (TestSkipTableConcurrentFirstUse), and seeks into malformed streams.
# ./internal/sim/... includes the stencil's slab workers, row for row
# against the per-element oracle at every worker count
# (TestStencilMatchesReference). ./internal/cluster/ holds the halo exchange's per-node channels and the
# per-node goroutines that simulate into their slabs and write their parts
# into one step, whose scores then add every node's counts into one table,
# and the nodes that encode a written step's parts concurrently. The
# insitu names include the encode at commit, one index per variable over
# the step's cores on either strategy's consumer (TestOnlyWrittenStepsAreEncoded).
race-hot:
	$(GO) test -race . ./internal/query/... ./internal/telemetry/ ./internal/qlog/ ./internal/serve/ ./internal/index/ ./internal/selection/ ./internal/metrics/ ./internal/mining/... ./internal/sim/... ./internal/cluster/
	$(GO) test -race -run 'TestWindowsTileTheWhole|TestSkipTableConcurrentFirstUse|TestBBCWalkers' ./internal/bitvec/
	$(GO) test -race -run 'TestLentStep|TestRunOutputIdenticalAcrossCores|TestStage|TestResumeStages|TestQueueSized|TestCalibrate|TestQueueBackpressure|TestPhaseRecord|TestOnlyWrittenStepsAreEncoded' ./internal/insitu/

# The repository benchmark (bench/README.md, BENCHMARK.json): one workload
# or all four, untraced end to end and then traced per layer, every
# operation checked against its oracle. OUT appends the report as one line
# to a set file; ten or so such lines per commit are what bench-compare
# judges:
#   make bench WORKLOAD=offline_ocean SEED=1 OUT=cand.jsonl
#   make bench-compare BASE=base.jsonl CAND=cand.jsonl
# bench-pairs builds both sets against a git revision: it exports BASE with
# git archive under .bench_build/base/, runs N pairs alternating that tree
# and the working tree (the side that runs first flips every pair), appends
# to .bench_build/pairs/{base,cand}.jsonl (delete them to start new sets)
# and ends with bench-compare on the two:
#   make bench-pairs BASE=HEAD WORKLOAD=offline_ocean N=10 SEED=1
# The micro-benchmarks stay plain `go test`, e.g. `go test -run '^$$' -bench
# 'BenchmarkNoop|BenchmarkAppendTelemetry|BenchmarkOrInto' -benchmem
# ./internal/telemetry/ ./internal/bitvec/`. The offline read path's
# kernels, on ocean-like clustered bins (1M elements):
# BenchmarkOrInto/{wah,bbc}/{whole,quarter} (the quarter is a window past
# the first block, reached through the skip table),
# BenchmarkWriteIDsMasked/{wah,bbc}/{1pct,25pct,full} and
# BenchmarkTallyMasked/... (internal/bitvec), and the operator they serve on
# the benchmark's own ocean,
# BenchmarkCorrelation/{cold,warm}/{spatial,whole}/{procs=1,procs=max,window=grain}
# (internal/query: one worker, the executor's split over GOMAXPROCS, and
# windows of parGrain words), its value ORs alone, each reading the cheaper
# side, BenchmarkBits/{whole,quarter} (internal/query), and mining: BenchmarkMine and BenchmarkMineParallel4
# (internal/mining), one whole decode-and-tally pass. The in-situ write
# path's
# kernels, on heat3d-shaped data (64³ elements, 160 bins):
# BenchmarkBBCFromBitmap/{sparse,clustered,literal-heavy} and
# BenchmarkWriteIDs/{uint8,uint16,int32}/{wah,bbc} (internal/bitvec),
# BenchmarkEncodeAuto (internal/codec),
# BenchmarkBinInto/{uniform,explicit,interface}/{uint8,uint16}
# (internal/binning), BenchmarkBuildParallelCodec/{1,2}, .../ids/{1,2} and
# BenchmarkBuildFromIDs/{1,2} (internal/index), with
# BenchmarkBuildFromIDs/lulesh/{1,2} pricing the build on lulesh's shorter
# id runs (one 48³ step, all twelve arrays at 120 bins), the in-situ
# build's two halves on the benchmark's own 128³ heat3d step 40,
# BenchmarkScanIDs/{1,2} (every step) and BenchmarkFromRuns/{1,2} (the
# written steps), BenchmarkCondEntropyScore/{runs/{1,2},decoded}
# (internal/selection), BenchmarkStepHandoff/{owned,lent,staged}
# (internal/insitu), and the simulator itself, BenchmarkStep/128/{1,2}
# (internal/sim/heat3d, the benchmark's grid).
WORKLOAD ?= all
SEED ?= 1
bench:
	bash bench/run.sh -workload $(WORKLOAD) -seed $(SEED) $(if $(OUT),-out $(OUT))

# Applies BENCHMARK.json's bounds to two set files: within / regressed /
# unresolved per workload and metric, against the sets' own spread.
bench-compare:
	bash bench/run.sh compare $(BASE) $(CAND)

N ?= 10
pairs := .bench_build/pairs
bench-pairs:
	@test -n "$(BASE)" || { echo "bench-pairs: set BASE=<git revision>"; exit 2; }
	rm -rf .bench_build/base
	mkdir -p .bench_build/base $(pairs)
	git archive $(BASE) | tar -x -C .bench_build/base
	@for i in $$(seq 1 $(N)); do \
		order="base cand"; [ $$((i % 2)) -eq 1 ] || order="cand base"; \
		for side in $$order; do \
			dir=.; [ $$side = cand ] || dir=.bench_build/base; \
			echo "bench-pairs: pair $$i/$(N), $$side"; \
			(cd $$dir && bash bench/run.sh -workload $(WORKLOAD) -seed $(SEED) -out "$(CURDIR)/$(pairs)/$$side.jsonl") || exit 1; \
		done; \
	done
	bash bench/run.sh compare $(pairs)/base.jsonl $(pairs)/cand.jsonl

# bench/ is a Go module of its own that compiles against internal/..., so
# the root module's build and tests never see it. This vets it and runs its
# unit tests plus the -quick end-to-end smoke of all four workloads (toy
# sizes; the numbers mean nothing, the oracles do).
bench-quick:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# Trace smoke: the identity-tracing e2e acceptance (slow query → trace ID
# in the slow log → span tree from /debug/traces?id=, its JSON parsed
# independently).
trace-smoke:
	$(GO) test -run 'TestSlowQueryTraceEndToEnd' .

# Timing guards for the observability budgets (docs/OBSERVABILITY.md): < 2%
# for the telemetry hooks on the bitvec append hot loop and for the
# slow-log gate + codec counters on the plain query path with ANALYZE
# disabled, < 5% for the workload-capture path with a qlog writer installed
# (the cost of encoding and digesting every record, plus a margin). Gated
# behind the env var because wall-clock assertions flap on loaded CI hosts;
# run it on a quiet machine. -p 1 runs the packages one at a time: a guard
# must not time its path while another guard's loop holds a core.
# TestAnalyzeOverheadDisabled's measured prologue includes the pprof
# label gate, and TestDisabledLabelZeroCost pins that gate to a single
# atomic load on its own.
overhead:
	TELEMETRY_OVERHEAD_GUARD=1 $(GO) test -p 1 -count 1 -run 'TestInstrumentationOverhead|TestAnalyzeOverheadDisabled|TestQlogCaptureOverhead|TestDisabledLabelZeroCost' -v ./internal/bitvec/ ./internal/query/ ./internal/telemetry/

# Short fuzz passes: the untrusted parsers (docs/FORMATS.md) — the
# index-file reader (every index it accepts tiles its elements: the
# histogram sums to N, decodes at 1 and 3 workers agree, and small ones
# equal the []bool model's partition), the raw-step and dataset readers,
# the run-journal parser and the workload-log parser — the query oracle
# property (any request, codec and cache state answers exactly as the brute-force
# model over the binned raw array does), the flat kernels under it
# (OrInto, FromFlat, WriteIDs, CountRange and the masked kernels —
# WriteIDsMasked, TallyMasked, CountMasked × mask shape × word window × id
# width — × codec, and what is built on them — And, Or, AndCount,
# XorCount, Equal × codec pair, CountUnits, Iterate, ToVector — against a
# []bool model, on bitmaps up to four skip blocks long),
# the run-domain encoders (byte-identical to the expanded-buffer
# model, bounded form exact), the index build from ids (every bin, count
# and auto choice against a []bool model, on run-structured ids at every
# worker count and codec), the batch bin kernel (BinInto equals the
# mapper's own Bin on any float64 bit pattern, at every width), mining
# from the bitmaps (Mine and MineParallel equal MineFullData over random
# arrays, bin counts and unit sizes), and the selection scorer's run merge
# (joint counts and spatial differences of two run streams, whole or cut
# where a build's workers cut them, equal the id tallies at every width
# pairing).
# Full corpus exploration is `go test -fuzz <target> ./internal/<pkg>/`.
fuzz-smoke:
	$(GO) test -run xxx -fuzz 'FuzzReadIndex$$' -fuzztime 10s ./internal/store/
	$(GO) test -run xxx -fuzz 'FuzzReadRaw$$' -fuzztime 10s ./internal/store/
	$(GO) test -run xxx -fuzz 'FuzzReadDataset$$' -fuzztime 10s ./internal/store/
	$(GO) test -run xxx -fuzz 'FuzzParseJournal$$' -fuzztime 10s ./internal/insitu/
	$(GO) test -run xxx -fuzz 'FuzzParseLog$$' -fuzztime 10s ./internal/qlog/
	$(GO) test -run xxx -fuzz 'FuzzQueryMatchesOracle$$' -fuzztime 10s ./internal/query/
	$(GO) test -run xxx -fuzz 'FuzzFlatKernels$$' -fuzztime 10s ./internal/bitvec/
	$(GO) test -run xxx -fuzz 'FuzzBBCEncode$$' -fuzztime 10s ./internal/bitvec/
	$(GO) test -run xxx -fuzz 'FuzzBuildFromIDs$$' -fuzztime 10s ./internal/index/
	$(GO) test -run xxx -fuzz 'FuzzBinInto$$' -fuzztime 10s ./internal/binning/
	$(GO) test -run xxx -fuzz 'FuzzMineMatchesFullData$$' -fuzztime 10s ./internal/mining/
	$(GO) test -run xxx -fuzz 'FuzzRunMerge$$' -fuzztime 10s ./internal/metrics/

# The query oracle suite (DESIGN.md "Query planning & caching"): every op
# through the one plan → optimize → execute path — every codec, cache cold
# and warm, every accounting level — must equal the brute-force model over
# the binned raw array exactly; plus EXPLAIN/ANALYZE shape agreement, the
# one-plan-per-request check, the generation-invalidation check, the
# cheaper side of every value OR (its seeds, the side choice over every run
# of bins, the groups and their concurrent first build), the index door
# every file passes (FromParts refuses bins that do not tile the elements,
# checked against the []bool model, so no value OR ever reads the
# complement of a broken index), the correlation's internal error on a
# wrong id array, and the mining property (Mine = MineParallel =
# MineFullData).
plan-diff:
	$(GO) test -run 'TestPlanned|FuzzQueryMatchesOracle|TestOracleSeedsReadBothSidesAndLevels|TestExplainMatchesAnalyzeShape|TestOnePlanPerRequest|TestCacheGenerationInvalidationMidStream|TestCorrelationDropsAWrongIDArray|TestChooseSideReadsTheCheaperSide|TestGroupsConcurrentFirstUse|TestPaperFigure1|TestMultiLevelHighIsOrOfChildren|TestFromPartsRefusesBrokenIndexes|TestTileMatchesTheModel|TestMineProperty' -v ./internal/query/ ./internal/index/ ./internal/mining/

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
# detector, together with the fault-injection and fsck corruption tables,
# the one repair Resume and fsck -repair share (TestFsck*/TestResume*: a
# second fsck after a repair is clean, a refused Resume moves nothing, a
# completed run resumes only when it audits clean),
# the query server's run-directory loader and the offline archive: both
# read a run's committed steps through the same recovery reader as Resume
# and fsck, so a crashed run's committed prefix, an escaping path or a
# damaged artifact must reach them as it reaches Resume.
crash-matrix:
	$(GO) test -race -run 'TestCrashMatrix|TestResume|TestTransient|TestWorkerPanic|TestFsck' -v ./internal/insitu/
	$(GO) test -race -run 'TestLoadDir' -v ./internal/serve/
	$(GO) test -race -run 'TestLoad' -v ./internal/offline/

# Non-test Go lines outside bench/, per package directory (largest first)
# and in total: the count ROADMAP quotes.
loc:
	@find . -path './.*' -prune -o -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; all += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -rn"; close("sort -rn"); printf "%7d total\n", all }'

# `race` already executes every test the named gates above select
# (race-hot, plan-diff, replay-diff, trace-smoke, crash-matrix,
# serve-chaos, serve-smoke); the gates stay as targets for humans chasing
# one failure. `test` runs the suite once more without the race detector,
# where the tighter non-race bounds (race_test.go / norace_test.go) apply.
ci: vet build test race overhead fuzz-smoke bench-quick
