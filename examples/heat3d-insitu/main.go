// Heat3D in-situ analysis, end to end: simulate 60 time-steps of 3-D heat
// diffusion, generate compressed bitmaps on the fly, select the 12 most
// informative steps online (conditional entropy), and write only their
// bitmaps to disk — the paper's full single-node workflow.
//
//	go run ./examples/heat3d-insitu [-steps N] [-select K] [-out DIR]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"insitubits"
)

func main() {
	steps := flag.Int("steps", 60, "time-steps to simulate")
	selectK := flag.Int("select", 12, "time-steps to keep")
	out := flag.String("out", "", "directory for selected bitmap files (default: temp dir)")
	cores := flag.Int("cores", runtime.NumCPU(), "worker goroutines")
	flag.Parse()

	dir := *out
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "heat3d-insitu-")
		if err != nil {
			log.Fatal(err)
		}
	}

	h, err := insitubits.NewHeat3D(48, 48, 32)
	if err != nil {
		log.Fatal(err)
	}
	// Calibrate the core split with the paper's Equations 1 and 2, then run
	// with the Separate Cores strategy: simulation and bitmap generation
	// proceed concurrently through a bounded step queue.
	calSim, err := insitubits.NewHeat3D(48, 48, 32)
	if err != nil {
		log.Fatal(err)
	}
	base := insitubits.PipelineConfig{
		Sim:    calSim,
		Steps:  *steps,
		Select: *selectK,
		Method: insitubits.MethodBitmaps,
		Bins:   160,
		Metric: insitubits.MetricConditionalEntropy,
		Cores:  *cores,
	}
	var split insitubits.SeparateCores
	if *cores >= 2 {
		split, err = insitubits.Calibrate(base)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("core allocation (Eq. 1/2): %s of %d cores\n", split.Describe(), *cores)
	} else {
		fmt.Println("single core: shared-cores strategy (no split to calibrate)")
	}

	store, err := insitubits.NewIOStore(insitubits.Xeon.DiskMBps)
	if err != nil {
		log.Fatal(err)
	}
	cfg := base
	cfg.Sim = h
	cfg.Store = store
	cfg.OutputDir = dir // persist the selected bitmaps for real
	if *cores >= 2 {
		cfg.Strategy = split
	}
	res, err := insitubits.RunPipeline(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("selected steps:  %v\n", res.Selected)
	fmt.Printf("phase times:     simulate %.3fs, bitmap-gen %.3fs, select %.3fs, output %.3fs (modelled)\n",
		res.Breakdown.Simulate.Seconds(), res.Breakdown.Reduce.Seconds(),
		res.Breakdown.Select.Seconds(), res.Breakdown.Output.Seconds())
	fmt.Printf("wall (overlap):  %.3fs\n", res.Wall.Seconds())
	fmt.Printf("raw step size:   %.2f MB; bitmap summary: %.2f MB (%.1fx smaller)\n",
		float64(res.StepBytes)/1e6, float64(res.SummaryBytes)/1e6,
		float64(res.StepBytes)/float64(res.SummaryBytes))
	fmt.Printf("modelled memory: %.2f MB (full data would need %.2f MB)\n",
		float64(res.PeakMemory)/1e6,
		float64(insitubits.MemoryModel(insitubits.MethodFullData, res.StepBytes, 0, 10))/1e6)

	// The pipeline persisted the selected bitmaps itself (OutputDir); read
	// the committed steps back through the journal and reload one index
	// offline.
	a, err := insitubits.LoadArchive(dir)
	if err != nil {
		log.Fatal(err)
	}
	kept := a.Steps()
	fmt.Printf("wrote %d bitmap files to %s\n", len(kept)*len(a.Vars()), dir)
	x, err := a.Index(kept[0], a.Vars()[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded step %d: %d elements, %d bins, entropy %.4f bits\n",
		kept[0], x.N(), x.Bins(), insitubits.Entropy(x.Histogram(), x.N()))
}
