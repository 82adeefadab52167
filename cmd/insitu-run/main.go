// Command insitu-run executes a configurable in-situ pipeline: pick the
// workload, reduction method, metric, core strategy and sizes from flags
// and get the paper-style phase breakdown.
//
//	insitu-run -sim heat3d -method bitmaps -steps 100 -select 25 -cores 8
//	insitu-run -sim lulesh -method fulldata -metric emd-spatial
//	insitu-run -sim heat3d -method sampling -sample 10
//	insitu-run -sim heat3d -strategy separate -simcores 2 -redcores 2
//	insitu-run -sim heat3d -strategy auto      # Eq. 1/2 calibration
//	insitu-run -sim heat3d -out run1/ -resume  # continue a crashed run
//
// Under -strategy separate (and auto) the simulation cores also stage each
// step — map it to one- or two-byte bin ids where it lies — so the queue
// between the two core sets holds staged steps, not raw ones; the report
// breaks the busy time down per core set and counts the queue in the
// modelled peak.
//
// Runs with -out are crash-safe: every artifact is written atomically and
// committed through a fsync'd journal (journal.isbj), so a killed run
// resumes with -resume and `bitmapctl fsck` can audit the directory.
//
// Observability (see docs/OBSERVABILITY.md): -debug-addr starts a debug
// HTTP server with live JSON counters, Prometheus /metrics, the live
// /debug/run dashboard (with the run's phase record) and pprof; -telemetry
// dumps the full telemetry snapshot as JSON after the run; -hold keeps the
// process (and debug server) alive until SIGINT/SIGTERM. While the debug
// server serves, run phases carry pprof labels (phase, workload, codec), so
// `go tool pprof -tags` on /debug/pprof/profile attributes CPU to them.
// Selection scores are not queries: each step's score lives in the journal
// and its time in the select phase and span, so a run writes nothing to a
// slow-query or workload log (those record the requests `insitu-serve` and
// `bitmapctl` execute).
//
// Identity tracing: -trace records one TraceID'd span tree per pipeline
// step, browsable as JSON at /debug/traces. -trace-sample keeps 1 of every
// N step traces, -trace-slow always keeps steps slower than the given
// duration regardless of sampling, and -trace-ring sizes the in-memory ring
// of kept traces.
//
//	insitu-run -sim heat3d -debug-addr :6060 -steps 200 -select 50 -hold
//	insitu-run -sim heat3d -trace -trace-sample 10 -trace-slow 50ms -debug-addr :6060
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"insitubits"
)

func main() {
	simName := flag.String("sim", "heat3d", "workload: heat3d | lulesh")
	method := flag.String("method", "bitmaps", "reduction: bitmaps | fulldata | sampling")
	metric := flag.String("metric", "cond-entropy", "selection metric: cond-entropy | emd-count | emd-spatial")
	steps := flag.Int("steps", 50, "time-steps to simulate")
	selectK := flag.Int("select", 10, "time-steps to keep")
	bins := flag.Int("bins", 160, "value bins per variable")
	codecName := flag.String("codec", "auto", "bitmap codec per bin: auto | wah | bbc")
	sample := flag.Float64("sample", 10, "sampling percentage (method=sampling)")
	cores := flag.Int("cores", runtime.NumCPU(), "worker goroutines")
	strategy := flag.String("strategy", "shared", "core allocation: shared | separate | auto")
	simCores := flag.Int("simcores", 0, "simulation cores (strategy=separate)")
	redCores := flag.Int("redcores", 0, "reduction cores (strategy=separate)")
	disk := flag.Float64("disk", insitubits.Xeon.DiskMBps, "modelled disk bandwidth MB/s")
	dim := flag.Int("dim", 32, "grid/mesh edge length")
	outDir := flag.String("out", "", "persist selected summaries (+manifest.json) to this directory")
	resume := flag.Bool("resume", false, "continue a crashed run from -out's journal instead of starting over")
	debugAddr := flag.String("debug-addr", "", "serve live telemetry, metrics, traces and pprof on this address (e.g. :6060)")
	telemetryDump := flag.Bool("telemetry", false, "print the telemetry snapshot as JSON after the run")
	trace := flag.Bool("trace", false, "record identity traces (one per pipeline step), served at /debug/traces")
	traceSample := flag.Int("trace-sample", 1, "keep 1 of every N traces (head sampling; 1 keeps all)")
	traceSlow := flag.Duration("trace-slow", 0, "always keep traces slower than this, regardless of sampling")
	traceRing := flag.Int("trace-ring", 256, "completed traces held in memory")
	hold := flag.Bool("hold", false, "keep the process (and debug server) alive after the report; ctrl-C shuts down cleanly")
	flag.Parse()

	if *trace {
		rec := insitubits.NewTraceRecorder(insitubits.TraceConfig{
			Capacity:      *traceRing,
			SampleEvery:   *traceSample,
			SlowThreshold: *traceSlow,
		})
		insitubits.SetTraceRecorder(rec)
		defer func() {
			st := rec.Stats()
			fmt.Printf("traces:         %d started, %d kept (%d slow), %d dropped\n",
				st.Started, st.Kept, st.KeptSlow, st.Dropped)
		}()
	}

	var dbg *insitubits.TelemetryDebugServer
	if *debugAddr != "" {
		var err error
		dbg, err = insitubits.Telemetry.ServeDebug(*debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		// Runtime metrics (goroutines, heap, GC) ride the same registry, so
		// they land in /metrics, the history ring, and `bitmapctl top` for
		// free.
		insitubits.Telemetry.EnableRuntimeMetrics()
		hist := insitubits.StartMetricsHistory(insitubits.Telemetry, time.Second, 300)
		defer hist.Stop()
		fmt.Printf("debug server:   http://%s  (/telemetry /metrics /debug/metrics/history /debug/traces /debug/pprof/, pprof-labelled)\n", dbg.Addr)
	}

	mkSim := func() (insitubits.Simulator, error) {
		switch *simName {
		case "heat3d":
			return insitubits.NewHeat3D(*dim, *dim, *dim)
		case "lulesh":
			return insitubits.NewLulesh(*dim, *dim, *dim)
		default:
			return nil, fmt.Errorf("unknown workload %q", *simName)
		}
	}
	s, err := mkSim()
	if err != nil {
		log.Fatal(err)
	}
	codecID, err := insitubits.ParseCodec(*codecName)
	if err != nil {
		log.Fatal(err)
	}
	cfg := insitubits.PipelineConfig{
		Sim:       s,
		Steps:     *steps,
		Select:    *selectK,
		Bins:      *bins,
		Codec:     codecID,
		SamplePct: *sample,
		Seed:      1,
		Cores:     *cores,
	}
	switch *method {
	case "bitmaps":
		cfg.Method = insitubits.MethodBitmaps
	case "fulldata":
		cfg.Method = insitubits.MethodFullData
	case "sampling":
		cfg.Method = insitubits.MethodSampling
	default:
		log.Fatalf("unknown method %q", *method)
	}
	switch *metric {
	case "cond-entropy":
		cfg.Metric = insitubits.MetricConditionalEntropy
	case "emd-count":
		cfg.Metric = insitubits.MetricEMDCount
	case "emd-spatial":
		cfg.Metric = insitubits.MetricEMDSpatial
	default:
		log.Fatalf("unknown metric %q", *metric)
	}
	switch *strategy {
	case "shared":
		cfg.Strategy = insitubits.SharedCores{}
	case "separate":
		if *simCores < 1 || *redCores < 1 {
			log.Fatal("strategy=separate needs -simcores and -redcores")
		}
		cfg.Strategy = insitubits.SeparateCores{SimCores: *simCores, ReduceCores: *redCores}
	case "auto":
		calibSim, err := mkSim()
		if err != nil {
			log.Fatal(err)
		}
		calCfg := cfg
		calCfg.Sim = calibSim
		split, err := insitubits.Calibrate(calCfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("calibrated allocation (Eq. 1/2): %s\n", split.Describe())
		cfg.Strategy = split
	default:
		log.Fatalf("unknown strategy %q", *strategy)
	}
	store, err := insitubits.NewIOStore(*disk)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Store = store
	cfg.OutputDir = *outDir

	var res *insitubits.PipelineResult
	if *resume {
		if *outDir == "" {
			log.Fatal("-resume needs -out pointing at the crashed run's directory")
		}
		res, err = insitubits.ResumePipeline(*outDir, cfg)
	} else {
		res, err = insitubits.RunPipeline(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload:       %s (%d vars x %d elements, %.2f MB/step)\n",
		*simName, len(s.Vars()), s.Elements(), float64(res.StepBytes)/1e6)
	fmt.Printf("method:         %v, metric %v, %d bins, codec %v\n", cfg.Method, cfg.Metric, *bins, codecID)
	fmt.Printf("selected:       %v\n", res.Selected)
	fmt.Printf("simulate:       %.3fs\n", res.Breakdown.Simulate.Seconds())
	fmt.Printf("reduce:         %.3fs\n", res.Breakdown.Reduce.Seconds())
	fmt.Printf("select:         %.3fs\n", res.Breakdown.Select.Seconds())
	fmt.Printf("output:         %.3fs (modelled, %.2f MB at %.0f MB/s)\n",
		res.Breakdown.Output.Seconds(), float64(res.BytesWritten)/1e6, *disk)
	fmt.Printf("total:          %.3fs (wall with overlap: %.3fs)\n",
		res.Breakdown.Total().Seconds(), res.Wall.Seconds())
	fmt.Printf("summary size:   %.2f MB/step (%.1fx smaller than raw)\n",
		float64(res.SummaryBytes)/1e6, float64(res.StepBytes)/float64(res.SummaryBytes))
	fmt.Printf("modelled peak:  %.2f MB\n", float64(res.PeakMemory)/1e6)
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		if hwm, ok := peakRSS(string(status)); ok {
			fmt.Printf("measured peak:  %.2f MB (process VmHWM: simulator, runtime and GC headroom included)\n", float64(hwm)/1e6)
		}
	}
	if _, ok := cfg.Strategy.(insitubits.SeparateCores); ok {
		fmt.Printf("queue peak:     %d steps of %.2f MB staged (memory backpressure watermark)\n",
			res.QueuePeak, float64(res.StagedBytes)/1e6)
		fmt.Printf("simulate cores: %.3fs busy (simulate + stage %.3fs)\n",
			(res.Breakdown.Simulate + res.StageTime).Seconds(), res.StageTime.Seconds())
		fmt.Printf("reduce cores:   %.3fs busy (reduce - stage, select)\n",
			(res.Breakdown.Reduce - res.StageTime + res.Breakdown.Select).Seconds())
	}
	if *outDir != "" {
		fmt.Printf("write time:     %.3fs (measured file output)\n", res.WriteTime.Seconds())
	}
	if *telemetryDump {
		data, err := insitubits.Telemetry.MarshalJSON()
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(append(data, '\n'))
	}
	if *hold {
		fmt.Println("holding (-hold): press ctrl-C to exit")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := dbg.Shutdown(ctx); err != nil {
			log.Printf("debug server shutdown: %v", err)
		}
	}
}

// peakRSS extracts the resident-set high-water mark, in bytes, from the text
// of /proc/<pid>/status ("VmHWM:    95560 kB").
func peakRSS(status string) (int64, bool) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb int64
			_, err := fmt.Sscan(rest, &kb)
			return kb << 10, err == nil
		}
	}
	return 0, false
}
