package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"insitubits/internal/binning"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/insitu"
	"insitubits/internal/selection"
	"insitubits/internal/sim"
	"insitubits/internal/sim/heat3d"
	"insitubits/internal/sim/lulesh"
	"insitubits/internal/store"
)

// insituSpec is one in-situ workload's shape: the single source of the
// child's command line, the in-process reference runs and the traced loop.
type insituSpec struct {
	sim                string // insitu-run -sim
	dim, steps, keep   int
	bins               int
	metric             selection.Metric
	metricFlag         string // insitu-run -metric
	simCores, redCores int    // worker counts of the two phases
	separate           bool   // sim and reduce overlap through a bounded queue
}

func insituSpecFor(sz sizes, workload string) insituSpec {
	if workload == "insitu_heat3d" {
		return insituSpec{sim: "heat3d", dim: sz.HeatDim, steps: sz.HeatSteps, keep: sz.HeatSelect, bins: sz.HeatBins,
			metric: selection.ConditionalEntropy, metricFlag: "cond-entropy", simCores: benchCores, redCores: benchCores}
	}
	return insituSpec{sim: "lulesh", dim: sz.LuleshDim, steps: sz.LuleshSteps, keep: sz.LuleshSelect, bins: sz.LuleshBins,
		metric: selection.EMDSpatial, metricFlag: "emd-spatial", simCores: 1, redCores: 1, separate: true}
}

// flags is the child's command line, minus -out.
func (sp insituSpec) flags() []string {
	f := []string{"-sim", sp.sim, "-dim", fmt.Sprint(sp.dim), "-steps", fmt.Sprint(sp.steps), "-select", fmt.Sprint(sp.keep),
		"-bins", fmt.Sprint(sp.bins), "-metric", sp.metricFlag, "-codec", "auto", "-cores", fmt.Sprint(benchCores)}
	if sp.separate {
		return append(f, "-strategy", "separate", "-simcores", fmt.Sprint(sp.simCores), "-redcores", fmt.Sprint(sp.redCores))
	}
	return append(f, "-strategy", "shared")
}

func (sp insituSpec) newSim() (sim.Simulator, error) {
	if sp.sim == "heat3d" {
		return heat3d.New(sp.dim, sp.dim, sp.dim)
	}
	return lulesh.New(sp.dim, sp.dim, sp.dim)
}

// config is the library-side twin of the child's flags.
func (sp insituSpec) config(method insitu.Method, outDir string) (insitu.Config, error) {
	s, err := sp.newSim()
	if err != nil {
		return insitu.Config{}, err
	}
	cfg := insitu.Config{Sim: s, Steps: sp.steps, Select: sp.keep, Method: method, Bins: sp.bins,
		Codec: codec.Auto, Metric: sp.metric, Seed: 1, Cores: benchCores, OutputDir: outDir}
	if sp.separate {
		cfg.Strategy = insitu.SeparateCores{SimCores: sp.simCores, ReduceCores: sp.redCores}
	}
	return cfg, nil
}

// insituState is a set-up in-situ workload.
type insituState struct {
	spec     insituSpec
	bin      string
	selected []int // full-data reference selection
	rawBytes float64
}

// setupInsitu builds the daemons and makes the full-data reference run: the
// same pipeline with raw arrays as summaries, whose selection the bitmap
// runs must reproduce exactly.
func setupInsitu(ctx context.Context, rc *runCtx, workload string) (state, error) {
	if err := rc.site.buildDaemons(ctx); err != nil {
		return nil, err
	}
	st := &insituState{spec: insituSpecFor(rc.sizes, workload), bin: filepath.Join(rc.site.bin, "insitu-run")}
	cfg, err := st.spec.config(insitu.FullData, "")
	if err != nil {
		return nil, err
	}
	cfg.Ctx = ctx
	res, err := insitu.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("full-data reference run: %w", err)
	}
	st.selected = res.Selected
	st.rawBytes = 8 * float64(cfg.Sim.Elements()) * float64(len(cfg.Sim.Vars())) * float64(len(res.Selected))
	return st, nil
}

func (st *insituState) close() {}

// verifyRun checks one finished run directory against the oracles and
// returns the bytes of the .isbm files it holds.
func (st *insituState) verifyRun(dir string) (int64, error) {
	man, err := insitu.ReadManifest(dir)
	if err != nil {
		return 0, err
	}
	if err := sameSelection(man.Selected, st.selected); err != nil {
		return 0, err
	}
	rep, err := insitu.Fsck(dir, insitu.FsckOptions{})
	if err != nil {
		return 0, err
	}
	if !rep.Clean() || !rep.Complete {
		return 0, fmt.Errorf("fsck: complete=%v, issues %+v", rep.Complete, rep.Issues)
	}
	var stored int64
	for _, f := range man.Files {
		fi, err := os.Stat(filepath.Join(dir, f.Path))
		if err != nil {
			return 0, err
		}
		stored += fi.Size()
	}
	return stored, nil
}

// measure repeats the child process for the budget; every number is the
// median over the repetitions.
func (st *insituState) measure(ctx context.Context, rc *runCtx, budget time.Duration) (*result, error) {
	res := newResult()
	var stepMs, cpuMs, rss, ratio []float64
	steps := float64(st.spec.steps)
	var spent time.Duration
	for rep := 0; rc.again(spent, budget, rep); rep++ {
		dir, err := rc.site.tempDir("run")
		if err != nil {
			return nil, err
		}
		cs, err := runChild(ctx, st.bin, append(st.spec.flags(), "-out", dir)...)
		spent += cs.wall
		var stored int64
		if err == nil {
			stored, err = st.verifyRun(dir)
		}
		res.Ops.check(err)
		os.RemoveAll(dir)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err != nil {
			continue
		}
		stepMs = append(stepMs, float64(cs.wall)/1e6/steps)
		cpuMs = append(cpuMs, float64(cs.cpu)/1e6/steps)
		rss = append(rss, cs.rssMB)
		ratio = append(ratio, float64(stored)/st.rawBytes)
	}
	n := len(stepMs)
	if n == 0 {
		return res, nil
	}
	for _, r := range ratio[1:] {
		if r != ratio[0] { // exact by construction: the simulators are deterministic
			res.Ops.check(fmt.Errorf("stored_bytes_ratio differs between repetitions: %v", ratio))
			break
		}
	}
	res.put("op_ms", median(stepMs), "ms", n)
	res.put("op_cpu_ms", median(cpuMs), "ms", n)
	res.put("peak_rss_mb", median(rss), "MB", n)
	res.put("stored_bytes_ratio", ratio[0], "ratio", n)
	return res, nil
}

// keptStep is one selected step of the traced loop.
type keptStep struct {
	step int
	idx  []*index.Index
}

// layers re-drives the workload in process with one span per layer call.
// The loop is the pipeline's: Simulator.Step, per variable BuildParallel and
// Recode, the dissimilarity score against the last kept step, and for kept
// steps AtomicWrite+WriteIndex. Under separate cores the simulator runs on
// its own goroutine ahead of the reduction, joined by a queue of two steps
// (the pipeline's default capacity). One in-process insitu.Run of the same
// configuration gives the whole-step time and the pipeline's own breakdown.
func (st *insituState) layers(ctx context.Context, rc *runCtx, tr *tracer) (*result, error) {
	res := newResult()
	sp := st.spec

	// Whole-step reference: the real pipeline, in process, writing for real.
	// It runs first, on a cold heap, as every child process does.
	runDir, err := rc.site.tempDir("inproc")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	cfg, err := sp.config(insitu.Bitmaps, runDir)
	if err != nil {
		return nil, err
	}
	cfg.Ctx = ctx
	cpu0, t0 := selfCPU(), time.Now()
	run, err := insitu.Run(cfg)
	runWall, runCPU := time.Since(t0), selfCPU()-cpu0
	if err != nil {
		return nil, err
	}
	_, verr := st.verifyRun(runDir)
	res.Ops.check(verr)

	s, err := sp.newSim()
	if err != nil {
		return nil, err
	}
	vars := s.Vars()
	mappers := make([]binning.Mapper, len(vars))
	for k, rg := range s.Ranges() {
		if mappers[k], err = binning.NewUniform(rg[0], rg[1], sp.bins); err != nil {
			return nil, err
		}
	}
	outDir, err := rc.site.tempDir("traced")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(outDir)

	type produced struct {
		t      int
		root   int
		fields []sim.Field
	}
	simulate := func(t int) produced {
		root := tr.begin("insitu.step", 0, t)
		p := produced{t: t, root: root}
		tr.timed("sim.step", root, t, func() { p.fields = s.Step(sp.simCores) })
		return p
	}

	// The streaming selection of the pipeline: step 0 is kept; every later
	// step is scored against the last kept one, and each fixed-length
	// interval commits its best-scoring step when it closes.
	intervals := selection.FixedLength{}.Partition(make([]float64, sp.steps), sp.keep)
	var kept []keptStep
	var best keptStep
	bestScore, iv := 0.0, 0
	var lastRaw []float64
	files, writeBytes := 0, int64(0)
	commit := func(k keptStep, root int) error {
		for v, x := range k.idx {
			path := filepath.Join(outDir, fmt.Sprintf("step%04d_v%02d.isbm", k.step, v))
			var werr error
			tr.timed("store.write", root, k.step, func() {
				var n int64
				n, _, werr = store.AtomicWrite(nil, path, func(w io.Writer) (int64, error) { return store.WriteIndex(w, x) })
				writeBytes += n
			})
			if werr != nil {
				return werr
			}
			files++
		}
		kept = append(kept, k)
		return nil
	}
	reduce := func(p produced) error {
		cur := keptStep{step: p.t, idx: make([]*index.Index, len(p.fields))}
		for k, f := range p.fields {
			tr.timed("index.build", p.root, p.t, func() { cur.idx[k] = index.BuildParallel(f.Data, mappers[k], sp.redCores) })
			tr.timed("codec.recode", p.root, p.t, func() { cur.idx[k].Recode(codec.Auto) })
		}
		lastRaw = p.fields[0].Data
		if p.t == 0 {
			return commit(cur, p.root)
		}
		score := 0.0
		tr.timed("selection.score", p.root, p.t, func() {
			last := kept[len(kept)-1]
			for k := range cur.idx {
				score += selection.NewBitmapSummary(cur.idx[k]).Dissimilarity(selection.NewBitmapSummary(last.idx[k]), sp.metric)
			}
		})
		if iv < len(intervals) && p.t >= intervals[iv][0] && p.t < intervals[iv][1] {
			if best.idx == nil || score > bestScore {
				best, bestScore = cur, score
			}
			if p.t == intervals[iv][1]-1 {
				if err := commit(best, p.root); err != nil {
					return err
				}
				best, iv = keptStep{}, iv+1
			}
		}
		return nil
	}

	loopStart := time.Now()
	if sp.separate {
		queue := make(chan produced, 2) // insitu.SeparateCores' default QueueCap
		go func() {
			defer close(queue)
			for t := 0; t < sp.steps && ctx.Err() == nil; t++ {
				queue <- simulate(t)
			}
		}()
		for p := range queue {
			if err == nil {
				err = reduce(p)
			}
			tr.end(p.root)
		}
	} else {
		for t := 0; t < sp.steps && err == nil && ctx.Err() == nil; t++ {
			p := simulate(t)
			err = reduce(p)
			tr.end(p.root)
		}
	}
	loopWall := time.Since(loopStart)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	sel := make([]int, len(kept))
	for i, k := range kept {
		sel[i] = k.step
	}
	res.Ops.check(sameSelection(sel, st.selected))

	steps := float64(sp.steps)
	totals := selfTimes(tr.snapshot())
	perStep := func(name string) float64 {
		if t := totals[name]; t != nil {
			return float64(t.Total) / 1e6 / steps
		}
		return 0
	}
	stepMs := float64(runWall) / 1e6 / steps
	res.put("trace.op_ms", stepMs, "ms", sp.steps)
	busy := 0.0
	for _, name := range []string{"sim.step", "index.build", "codec.recode", "selection.score", "store.write"} {
		ms := perStep(name)
		busy += ms
		res.put(name+"_ms", ms, "ms", totals[name].Count)
	}
	if sp.separate {
		res.put("insitu.overlap_ratio", busy/(float64(loopWall)/1e6/steps), "ratio", sp.steps)
	} else {
		// What the pipeline spends per step outside the layer calls:
		// journal fsyncs, manifest, telemetry, goroutine hand-offs.
		res.put("insitu.self_ms", stepMs-busy, "ms", sp.steps)
	}
	res.put("store.files_per_step", float64(files)/steps, "count", files)
	if w := totals["store.write"]; w != nil && w.Total > 0 {
		res.put("store.write_mb_per_s", float64(writeBytes)/1e6/(float64(w.Total)/1e9), "MB/s", w.Count)
	}
	res.put("insitu.queue_peak", float64(run.QueuePeak), "count", 1)
	res.put("insitu.cpu_s", runCPU.Seconds(), "s", 1)
	res.put("insitu.reported_simulate_ms", float64(run.Breakdown.Simulate)/1e6/steps, "ms", sp.steps)
	res.put("insitu.reported_reduce_ms", float64(run.Breakdown.Reduce)/1e6/steps, "ms", sp.steps)
	res.put("insitu.reported_select_ms", float64(run.Breakdown.Select)/1e6/steps, "ms", sp.steps)
	res.put("insitu.reported_write_ms", float64(run.WriteTime)/1e6/steps, "ms", sp.steps)

	// Layer probes on the run's own bitmaps: the last two kept steps of the
	// first variable, and every kept index for the exact counts.
	in := probeInput{raw: lastRaw, mapper: mappers[0], dir: outDir}
	in.pair = [2]*index.Index{kept[len(kept)-2].idx[0], kept[len(kept)-1].idx[0]}
	for _, k := range kept {
		in.stored = append(in.stored, k.idx...)
	}
	probes := map[string]sample{}
	if err := probeLayers(in, probes); err != nil {
		return nil, err
	}
	for name, s := range probes {
		if _, spanned := res.Metrics[name]; !spanned { // spans of the real loop win over probes
			res.Metrics[name] = s
		}
	}
	return res, nil
}
