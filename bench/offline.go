package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"insitubits/internal/binning"
	"insitubits/internal/bitcache"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/mining"
	"insitubits/internal/query"
	"insitubits/internal/store"
)

// oceanFiles is the ocean dataset indexed and written to disk: what
// offline_ocean analyses and serve_light serves.
type oceanFiles struct {
	dir    string
	paths  [2]string
	idx    [2]*index.Index // as built; the workloads read their own copies back
	od     *oceanData
	stored int64
	nElems int
}

// writeOcean generates the ocean, builds both indexes the way the
// pipeline does (parallel build, adaptive recode) and writes them durably.
func writeOcean(rc *runCtx) (*oceanFiles, error) {
	od, err := genOcean(rc.sizes)
	if err != nil {
		return nil, err
	}
	dir, err := rc.site.tempDir("ocean")
	if err != nil {
		return nil, err
	}
	of := &oceanFiles{dir: dir, od: od, nElems: len(od.raw[0])}
	for i, name := range oceanVars {
		x := index.BuildParallel(od.raw[i], od.mappers[i], benchCores).Recode(codec.Auto)
		of.idx[i] = x
		of.paths[i] = filepath.Join(dir, name+".isbm")
		n, _, err := store.AtomicWrite(nil, of.paths[i], func(w io.Writer) (int64, error) { return store.WriteIndex(w, x) })
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		of.stored += n
	}
	return of, nil
}

// storedRatio is .isbm bytes over the raw float64 bytes they replace.
func (of *oceanFiles) storedRatio() float64 {
	return float64(of.stored) / float64(8*of.nElems*len(oceanVars))
}

// offlineState is a set-up offline_ocean workload. The brute-force oracles
// have been evaluated; of the raw data only what the layer probes rebuild
// from is kept, so the process's memory during the timed phases is the
// analysis's own.
type offlineState struct {
	of       *oceanFiles
	probeRaw []float64
	probeMap binning.Mapper
	batch    []batchQuery
	want     []expected
	mineCfg  mining.Config
	findings []mining.Finding // full-data reference
	sabotage bool
}

func setupOffline(ctx context.Context, rc *runCtx) (state, error) {
	of, err := writeOcean(rc)
	if err != nil {
		return nil, err
	}
	od := of.od
	st := &offlineState{of: of, probeRaw: od.raw[0], probeMap: od.mappers[0], batch: genBatch(rc.sizes, rc.seed, od),
		mineCfg:  mining.Config{UnitSize: rc.sizes.MineUnit, ValueThreshold: rc.sizes.MineT, SpatialThreshold: rc.sizes.MineTPrime},
		sabotage: rc.sabotage}
	if st.findings, err = mining.MineFullData(od.raw[0], od.raw[1], od.mappers[0], od.mappers[1], st.mineCfg); err != nil {
		st.close()
		return nil, err
	}
	a, b := newBinned(od.raw[0], od.mappers[0]), newBinned(od.raw[1], od.mappers[1])
	st.want = make([]expected, len(st.batch))
	for i, q := range st.batch {
		st.want[i] = bruteForce(q, a, b)
	}
	of.od, of.idx = nil, [2]*index.Index{}
	return st, ctx.Err()
}

func (st *offlineState) close() { os.RemoveAll(st.of.dir) }

// load reads both index files back, as an analysis session would.
func (st *offlineState) load(tr *tracer, trace int) (xs [2]*index.Index, err error) {
	for i, p := range st.of.paths {
		tr.timed("store.read", 0, trace, func() {
			if err == nil {
				xs[i], err = loadIndex(p)
			}
		})
	}
	return xs, err
}

// execQuery runs one batch query through the query layer; with analyze it
// takes the *Analyze twin and also returns the words the plan scanned.
func execQuery(ctx context.Context, q batchQuery, xs [2]*index.Index, analyze bool) (got answer, words int64, err error) {
	var p *query.Profile
	switch q.Op {
	case "bits":
		var v bitvec.Bitmap
		if analyze {
			v, p, err = query.BitsAnalyze(ctx, xs[0], q.A)
		} else {
			v, err = query.Bits(ctx, xs[0], q.A)
		}
		if err == nil {
			got.Count = v.Count()
		}
	case "count":
		if analyze {
			got.Count, p, err = query.CountAnalyze(ctx, xs[0], q.A)
		} else {
			got.Count, err = query.Count(ctx, xs[0], q.A)
		}
	case "sum":
		if analyze {
			got.Agg, p, err = query.SumAnalyze(ctx, xs[0], q.A)
		} else {
			got.Agg, err = query.Sum(ctx, xs[0], q.A)
		}
	case "quantile":
		if analyze {
			got.Agg, p, err = query.QuantileAnalyze(ctx, xs[0], q.A, q.Q)
		} else {
			got.Agg, err = query.Quantile(ctx, xs[0], q.A, q.Q)
		}
	case "minmax":
		if analyze {
			got.Min, got.Max, p, err = query.MinMaxAnalyze(ctx, xs[0], q.A)
		} else {
			got.Min, got.Max, err = query.MinMax(ctx, xs[0], q.A)
		}
	case "correlation":
		if analyze {
			got.Pair, p, err = query.CorrelationAnalyze(ctx, xs[0], xs[1], q.A, q.B)
		} else {
			got.Pair, err = query.Correlation(ctx, xs[0], xs[1], q.A, q.B)
		}
	default:
		err = fmt.Errorf("unknown op %q", q.Op)
	}
	if p != nil {
		words = p.Total().WordsScanned
	}
	return got, words, err
}

// pass is one execution of the whole batch.
type pass struct {
	wall, cpu time.Duration
	opNs      map[string][]float64 // per-op latencies, traced passes only
	words     int64
}

// runBatch executes the batch once. Answers are checked after the clock
// stops. With a tracer every query gets a span and its latency is kept.
func (st *offlineState) runBatch(ctx context.Context, xs [2]*index.Index, ops *tally, tr *tracer, trace int, analyze bool) pass {
	got := make([]answer, len(st.batch))
	errs := make([]error, len(st.batch))
	p := pass{opNs: map[string][]float64{}}
	cpu0, t0 := selfCPU(), time.Now()
	for i, q := range st.batch {
		if tr == nil {
			got[i], _, errs[i] = execQuery(ctx, q, xs, false)
			continue
		}
		id, qt := tr.begin("query."+q.Op, 0, trace), time.Now()
		var words int64
		got[i], words, errs[i] = execQuery(ctx, q, xs, analyze)
		p.opNs[q.Op] = append(p.opNs[q.Op], float64(time.Since(qt).Nanoseconds()))
		tr.end(id)
		p.words += words
	}
	p.wall, p.cpu = time.Since(t0), selfCPU()-cpu0
	if st.sabotage {
		got[0] = wrongAnswer()
	}
	for i, q := range st.batch {
		if errs[i] == nil {
			errs[i] = checkAnswer(q, got[i], st.want[i])
		}
		ops.check(errs[i])
	}
	return p
}

// measure splits the budget over the three timed phases of an analysis
// session: (a) open both files and mine, (b) the heavy batch with no cache,
// (c) the same batch on a warm cache that fits its working set.
func (st *offlineState) measure(ctx context.Context, rc *runCtx, budget time.Duration) (*result, error) {
	res := newResult()
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()

	var mineMs []float64
	var xs [2]*index.Index
	var spent time.Duration
	for rep := 0; rc.again(spent, budget/4, rep) && ctx.Err() == nil; rep++ {
		t := time.Now()
		var err error
		if xs, err = st.load(nil, 0); err != nil {
			return nil, err
		}
		found, err := mining.Mine(xs[0], xs[1], st.mineCfg)
		spent += time.Since(t)
		mineMs = append(mineMs, float64(time.Since(t))/1e6)
		if err == nil {
			err = sameFindings(found, st.findings)
		}
		res.Ops.check(err)
	}

	cold := query.WithCache(ctx, nil)
	var batchMs, cpuMs []float64
	spent = 0
	for rep := 0; rc.again(spent, budget/2, rep) && ctx.Err() == nil; rep++ {
		p := st.runBatch(cold, xs, &res.Ops, nil, 0, false)
		spent += p.wall
		batchMs = append(batchMs, float64(p.wall)/1e6)
		cpuMs = append(cpuMs, float64(p.cpu)/1e6)
	}

	warm := query.WithCache(ctx, bitcache.New(int64(rc.sizes.CacheMB)<<20))
	st.runBatch(warm, xs, &res.Ops, nil, 0, false) // the cold pass that fills the cache
	var warmMs []float64
	spent = 0
	for rep := 0; rc.again(spent, budget/4, rep) && ctx.Err() == nil; rep++ {
		p := st.runBatch(warm, xs, &res.Ops, nil, 0, false)
		spent += p.wall
		warmMs = append(warmMs, float64(p.wall)/1e6)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	res.put("op_ms", median(batchMs), "ms", len(batchMs))
	res.put("op_cpu_ms", median(cpuMs), "ms", len(cpuMs))
	res.put("peak_rss_mb", selfPeakRSS(), "MB", 1)
	res.put("stored_bytes_ratio", st.of.storedRatio(), "ratio", 1)
	res.put("offline_mine_ms", median(mineMs), "ms", len(mineMs))
	res.put("query_batch_warm_ms", median(warmMs), "ms", len(warmMs))
	return res, nil
}

// layers prices the read path layer by layer: file reads, mining, every
// query of the batch under its own span, the plan's words scanned (via the
// Analyze twins), EXPLAIN, and the cache at two sizes.
func (st *offlineState) layers(ctx context.Context, rc *runCtx, tr *tracer) (*result, error) {
	res := newResult()
	var xs [2]*index.Index
	var err error
	var mineMs []float64
	nFound := 0
	for rep := 0; rep < rc.sizes.MinReps; rep++ {
		if xs, err = st.load(tr, rep); err != nil {
			return nil, err
		}
		var found []mining.Finding
		id, t := tr.begin("mining.mine", 0, rep), time.Now()
		found, err = mining.Mine(xs[0], xs[1], st.mineCfg)
		mineMs = append(mineMs, float64(time.Since(t))/1e6)
		tr.end(id)
		if err == nil {
			err = sameFindings(found, st.findings)
		}
		res.Ops.check(err)
		nFound = len(found)
	}
	res.put("mining.mine_ms", median(mineMs), "ms", len(mineMs))
	res.put("mining.findings", float64(nFound), "count", 1)

	cold := query.WithCache(ctx, nil)
	p := st.runBatch(cold, xs, &res.Ops, tr, 100, false)
	res.put("trace.op_ms", float64(p.wall)/1e6, "ms", 1)
	for _, m := range []struct {
		op, name, unit string
		perNs          float64
	}{
		{"bits", "query.bits_ms", "ms", 1e6}, {"correlation", "query.correlation_ms", "ms", 1e6},
		{"count", "query.count_us", "us", 1e3}, {"sum", "query.sum_us", "us", 1e3},
		{"quantile", "query.quantile_us", "us", 1e3}, {"minmax", "query.minmax_us", "us", 1e3},
	} {
		if ns := p.opNs[m.op]; len(ns) > 0 {
			res.put(m.name, median(ns)/m.perNs, m.unit, len(ns))
		}
	}
	pa := st.runBatch(cold, xs, &res.Ops, tr, 101, true)
	res.put("query.words_scanned", float64(pa.words), "count", len(st.batch))

	var explainNs []float64
	for _, q := range st.batch {
		t := time.Now()
		if q.Op == "correlation" {
			_, err = query.ExplainCorrelation(xs[0], xs[1], q.A, q.B)
		} else {
			_, err = query.Explain(xs[0], q.A, query.Op(q.Op))
		}
		explainNs = append(explainNs, float64(time.Since(t).Nanoseconds()))
		res.Ops.check(err)
	}
	res.put("query.explain_us", median(explainNs)/1e3, "us", len(explainNs))

	// The cache that fits the working set, then one a third its size.
	cache := bitcache.New(int64(rc.sizes.CacheMB) << 20)
	warm := query.WithCache(ctx, cache)
	st.runBatch(warm, xs, &res.Ops, nil, 0, false)
	filled := cache.Stats()
	var warmMs []float64
	for rep := 0; rep < rc.sizes.MinReps; rep++ {
		wp := st.runBatch(warm, xs, &res.Ops, tr, 102+rep, false)
		warmMs = append(warmMs, float64(wp.wall)/1e6)
	}
	cs := cache.Stats()
	res.put("query.batch_warm_ms", median(warmMs), "ms", len(warmMs))
	res.put("bitcache.hit_ratio", hitRatio(filled, cs), "ratio", len(warmMs))
	res.put("bitcache.bytes_mb", float64(cs.Bytes)/(1<<20), "MB", 1)
	res.put("bitcache.evictions", float64(cs.Evictions), "count", 1)

	small := bitcache.New(int64(rc.sizes.SmallCacheMB) << 20)
	tight := query.WithCache(ctx, small)
	st.runBatch(tight, xs, &res.Ops, nil, 0, false)
	filled = small.Stats()
	sp := st.runBatch(tight, xs, &res.Ops, tr, 200, false)
	res.put("query.batch_small_cache_ms", float64(sp.wall)/1e6, "ms", 1)
	res.put("bitcache.small_hit_ratio", hitRatio(filled, small.Stats()), "ratio", 1)

	in := probeInput{raw: st.probeRaw, mapper: st.probeMap, pair: xs, stored: xs[:], dir: st.of.dir}
	if err := probeLayers(in, res.Metrics); err != nil {
		return nil, err
	}
	return res, ctx.Err()
}

// hitRatio is hits over lookups between two snapshots of one cache.
func hitRatio(before, after bitcache.Stats) float64 {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
