// Command bench is the repository's benchmark: four workloads, each checked
// against an oracle, reporting end-to-end metrics from an untraced run and
// per-layer metrics from a separate traced run. README.md in this directory
// says what each workload and metric is for.
//
//	go run -C bench . -workload all -seed 1          every workload, both runs
//	go run -C bench . -workload serve_light -trace 1 one traced run
//	go run -C bench . compare A.jsonl B.jsonl        apply the bounds
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The last form is the one BENCHMARK.json names; its last line of output is
// the contract's JSON object.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workloadDef names one workload; setup builds everything that precedes
// its first timed repetition.
type workloadDef struct {
	name  string
	why   string
	setup func(ctx context.Context, rc *runCtx) (state, error)
}

var workloads = []workloadDef{
	{"insitu_heat3d",
		"one large array per step (128^3): index build and the joint-histogram selection score dominate the in-situ step, the write is small",
		func(ctx context.Context, rc *runCtx) (state, error) { return setupInsitu(ctx, rc, "insitu_heat3d") }},
	{"insitu_lulesh",
		"twelve small arrays per step on split sim/reduce cores: per-index fixed cost, XOR-popcount scoring, 12 fsync'd files per kept step, queue overlap",
		func(ctx context.Context, rc *runCtx) (state, error) { return setupInsitu(ctx, rc, "insitu_lulesh") }},
	{"offline_ocean",
		"offline read path on 1M-cell ocean bitmaps: mining and a 200-query heavy batch, cold and cache-warm; bitvec kernels and the planner do the work",
		setupOffline},
	{"serve_light",
		"insitu-serve daemon, 2 closed-loop clients, light ops, half hot half unique requests: HTTP, JSON and admission dominate the bitmap work",
		setupServe},
}

// state is a set-up workload. measure is the untraced end-to-end run;
// layers is the traced re-drive that prices each layer.
type state interface {
	measure(ctx context.Context, rc *runCtx, budget time.Duration) (*result, error)
	layers(ctx context.Context, rc *runCtx, tr *tracer) (*result, error)
	close()
}

// runCtx is what every workload needs from the invocation.
type runCtx struct {
	site     *site
	sizes    sizes
	seed     int64
	sabotage bool
}

// again decides whether a timed loop that has spent that much measured time
// on done repetitions goes round once more: always up to MinReps, then while
// the next repetition is more likely than not to fit the budget.
func (rc *runCtx) again(spent, budget time.Duration, done int) bool {
	if done < rc.sizes.MinReps {
		return true
	}
	return spent+spent/time.Duration(2*done) <= budget
}

// result is one run's metrics and operation tally.
type result struct {
	Metrics map[string]sample `json:"metrics"`
	Ops     tally             `json:"ops"`
}

func newResult() *result { return &result{Metrics: map[string]sample{}} }

func (r *result) put(name string, v float64, unit string, n int) {
	r.Metrics[name] = sample{v, unit, n}
}

// workloadReport is everything one invocation learned about one workload.
type workloadReport struct {
	Workload  string  `json:"workload"`
	EndToEnd  *result `json:"end_to_end,omitempty"`
	PerLayer  *result `json:"per_layer,omitempty"`
	TraceFile string  `json:"trace_file,omitempty"`
	FailRatio float64 `json:"fail_ratio"`
}

// report is the full document of one invocation (one line of a set file).
type report struct {
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Quick     bool             `json:"quick"`
	Env       envInfo          `json:"env"`
	Sizes     sizes            `json:"sizes"`
	Workloads []workloadReport `json:"workloads"`
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	out      string
	sabotage bool // tests only: corrupt one answer, to see the oracles catch it
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	if len(os.Args) > 1 && os.Args[1] == "manifest" {
		data, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		os.Stdout.Write(data)
		return
	}
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of the four names")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input (ocean data, query batch, hot set, request stream)")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long each workload's untraced run measures")
	flag.IntVar(&o.trace, "trace", -1, "0: untraced end-to-end run, 1: traced per-layer run, -1: both (the default)")
	flag.BoolVar(&o.quick, "quick", false, "toy sizes for smoke tests; the numbers mean nothing")
	flag.StringVar(&o.out, "out", "", "append the full report as one JSON line to this set file (input of compare)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, o, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run executes the requested workloads and prints the report; the exit code
// is 0 only when every operation of every workload agreed with its oracle.
func run(ctx context.Context, o options, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	if runtime.NumCPU() < benchCores && !o.quick {
		return fail(fmt.Errorf("host has %d CPU(s); the workloads are sized for %d and their numbers would not be comparable", runtime.NumCPU(), benchCores))
	}
	var selected []workloadDef
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fail(fmt.Errorf("unknown workload %q", o.workload))
	}
	st, err := newSite(root)
	if err != nil {
		return fail(err)
	}
	defer st.close()

	rc := &runCtx{site: st, sizes: fullSizes, seed: o.seed, sabotage: o.sabotage}
	if o.quick {
		rc.sizes = quickSizes
	}
	rep := report{Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Env: captureEnv(root), Sizes: rc.sizes}
	budget := time.Duration(o.seconds * float64(time.Second))
	for _, w := range selected {
		wr, err := runWorkload(ctx, rc, w, o.trace, budget)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		rep.Workloads = append(rep.Workloads, *wr)
	}

	printReport(stderr, &rep)
	if o.out != "" {
		if err := appendJSONLine(o.out, rep); err != nil {
			return fail(err)
		}
	}
	ok := true
	for _, wr := range rep.Workloads {
		ok = ok && wr.FailRatio == 0
	}
	if len(rep.Workloads) == 1 && o.trace >= 0 {
		if err := printContractLine(stdout, &rep.Workloads[0], o.trace); err != nil {
			return fail(err)
		}
	} else if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		return fail(err)
	}
	if !ok {
		return 1
	}
	return 0
}

// runWorkload sets one workload up (several times: setup_s is the median),
// then makes the untraced and/or the traced run.
func runWorkload(ctx context.Context, rc *runCtx, w workloadDef, trace int, budget time.Duration) (*workloadReport, error) {
	wr := &workloadReport{Workload: w.name}
	rounds := rc.sizes.SetupRounds
	if trace == 1 {
		rounds = 1 // a traced run reports no setup_s
	}
	var st state
	var setups []float64
	for i := 0; i < rounds; i++ {
		if st != nil {
			st.close()
		}
		t := time.Now()
		var err error
		if st, err = w.setup(ctx, rc); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer st.close()

	var ops tally
	if trace != 1 {
		res, err := st.measure(ctx, rc, budget)
		if err != nil {
			return nil, err
		}
		res.put("setup_s", median(setups), "s", len(setups))
		wr.EndToEnd = res
		ops.add(res.Ops)
	}
	if trace != 0 {
		tr := newTracer()
		res, err := st.layers(ctx, rc, tr)
		if err != nil {
			return nil, err
		}
		for _, m := range perLayer { // a layer the workload does not exercise reports 0
			if _, ok := res.Metrics[m.Name]; !ok {
				res.put(m.Name, 0, m.Unit, 0)
			}
		}
		wr.PerLayer = res
		ops.add(res.Ops)
		path, err := writeTrace(filepath.Join(rc.site.root, ".bench_build", "trace"), w.name, rc.seed, tr.snapshot())
		if err != nil {
			return nil, err
		}
		wr.TraceFile = path
	}
	if ops.Attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	wr.FailRatio = ops.failRatio()
	return wr, nil
}

// printContractLine prints the one JSON object the benchmark contract reads
// from the last line of standard output.
func printContractLine(w io.Writer, wr *workloadReport, trace int) error {
	res, defs := wr.EndToEnd, endToEnd
	if trace == 1 {
		res, defs = wr.PerLayer, perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Ops.Failed == 0, res.Ops.Attempted, res.Ops.Failed, map[string]value{}}
	for _, m := range defs {
		s, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", wr.Workload, m.Name)
		}
		line.Metrics[m.Name] = value{s.Value, m.Unit}
	}
	return json.NewEncoder(w).Encode(line)
}

// printReport renders the human-readable report: every metric by name with
// its unit and sample count, and traced next to untraced.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "bench: seed %d, %.0fs per workload, nproc %d, GOMAXPROCS %d, %s, %s, git %s\n",
		rep.Seed, rep.Seconds, rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.CPUModel, rep.Env.GitHead)
	if rep.Quick {
		fmt.Fprintln(w, "bench: -quick sizes: these numbers mean nothing")
	}
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n== %s  (fail_ratio %g)\n", wr.Workload, wr.FailRatio)
		if r := wr.EndToEnd; r != nil {
			fmt.Fprintf(w, "end to end, untraced (%d operations, %d failed):\n", r.Ops.Attempted, r.Ops.Failed)
			for _, m := range endToEndFor(wr.Workload) {
				alias := ""
				if m.Name == "op_ms" {
					alias = "  = " + opAlias[wr.Workload]
				}
				fmt.Fprintf(w, "  %-22s %s%s\n", m.Name, r.Metrics[m.Name], alias)
			}
			for _, f := range r.Ops.Failures {
				fmt.Fprintf(w, "  FAILED: %s\n", f)
			}
		}
		if r := wr.PerLayer; r != nil {
			fmt.Fprintf(w, "per layer, traced (%d operations, %d failed; spans in %s):\n", r.Ops.Attempted, r.Ops.Failed, wr.TraceFile)
			names := make([]string, 0, len(r.Metrics))
			for name := range r.Metrics {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if s := r.Metrics[name]; s.N > 0 {
					fmt.Fprintf(w, "  %-30s %s\n", name, s)
				}
			}
			for _, f := range r.Ops.Failures {
				fmt.Fprintf(w, "  FAILED: %s\n", f)
			}
			if e := wr.EndToEnd; e != nil {
				un, tr := e.Metrics["op_ms"].Value, r.Metrics["trace.op_ms"].Value
				fmt.Fprintf(w, "  tracing overhead: op_ms %.4g untraced, %.4g traced (%+.1f%%)\n", un, tr, 100*(tr-un)/un)
			}
		}
	}
}

func appendJSONLine(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
