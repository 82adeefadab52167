// Package cluster runs the paper's parallel in-situ environment (§5.3,
// Figure 13): the global Heat3D grid is decomposed into z-slabs, one per
// simulated node; nodes exchange boundary planes every step (goroutines and
// channels standing in for MPI); each node generates bitmaps over its own
// slab ("distributed bitmaps", Figure 2) — each node's run stream, encoded
// into bitmaps for the steps it writes; and selection scores each step as
// one selection.NodeSummary, which adds the nodes' histograms and joint
// counts (or Equation 3 differences) into one table — never moving the data
// itself — and feeds the scores to selection's streaming greedy. Output
// goes either to per-node local disks (parallel) or to one shared remote
// data server (contended).
package cluster

import (
	"fmt"
	"sync"
	"time"

	"insitubits/internal/binning"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/iosim"
	"insitubits/internal/selection"
	"insitubits/internal/sim/heat3d"
	"insitubits/internal/store"
)

// Method mirrors the two Figure 13 reduction methods.
type Method int

const (
	// Bitmaps writes per-node compressed indices.
	Bitmaps Method = iota
	// FullData writes per-node raw arrays.
	FullData
)

// Config parameterizes one cluster run.
type Config struct {
	Nodes        int
	CoresPerNode int
	// Global grid; decomposed into z-slabs (GridZ must allow ≥1 interior
	// plane per node).
	GridX, GridY, GridZ int

	Steps, Select int
	Metric        selection.Metric
	Method        Method
	Bins          int

	// LocalMBps is each node's local disk bandwidth; used when Remote is
	// nil. Writes proceed in parallel across nodes, so modelled output
	// time is the slowest node's transfer.
	LocalMBps float64
	// Remote, when set, is the single shared data server every node writes
	// to; its modelled time accumulates over all nodes' bytes.
	Remote *iosim.Store
}

func (c *Config) validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("cluster: %d nodes", c.Nodes)
	}
	if c.CoresPerNode < 1 {
		return fmt.Errorf("cluster: %d cores per node", c.CoresPerNode)
	}
	if c.GridZ < 3*c.Nodes {
		return fmt.Errorf("cluster: grid z=%d too shallow for %d nodes", c.GridZ, c.Nodes)
	}
	if c.Steps < 1 || c.Select < 1 || c.Select > c.Steps {
		return fmt.Errorf("cluster: select %d of %d steps", c.Select, c.Steps)
	}
	if !c.Metric.Valid() {
		return fmt.Errorf("cluster: unknown metric %v", c.Metric)
	}
	if c.Method != Bitmaps && c.Method != FullData {
		return fmt.Errorf("cluster: unknown method %d", c.Method)
	}
	if c.Bins < 1 || c.Bins > index.MaxIDBins {
		// A node's bitmaps are built from, and scored on, narrow bin ids.
		return fmt.Errorf("cluster: %d bins, want 1 to %d", c.Bins, index.MaxIDBins)
	}
	if c.Remote == nil && c.LocalMBps <= 0 {
		return fmt.Errorf("cluster: local bandwidth %g MB/s", c.LocalMBps)
	}
	return nil
}

// Result reports one cluster run.
type Result struct {
	// Simulate and Reduce are the wall time of the parallel phases (all
	// nodes working concurrently); Select is metric-evaluation time;
	// Output is the modelled transfer time (max node for local, shared
	// total for remote).
	Simulate, Reduce, Select, Output time.Duration
	BytesWritten                     int64
	selection.Result                 // the selected steps and their winning scores
}

// node is one simulated machine. Its slab holds its own planes [lo, hi) and
// a ghost plane on each side that has a neighbor.
type node struct {
	sim    *heat3d.Sim
	lo, hi int
	up     chan []float64 // plane flowing to the node above (z+)
	down   chan []float64 // plane flowing to the node below (z-)
}

// stepSummary is one global time-step's node parts and, for full data,
// their stored bytes; a bitmap step's are known once it is encoded (write).
type stepSummary struct {
	selection.NodeSummary
	outBytes []int64
}

// Run executes the cluster experiment.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nodes, err := buildNodes(cfg)
	if err != nil {
		return nil, err
	}
	mapper, err := binning.NewUniform(0, 130, cfg.Bins)
	if err != nil {
		return nil, err
	}
	// Step 0 is kept, then the greedy keeps one winner per interval.
	res := &Result{}
	g := selection.NewGreedy(cfg.Steps, cfg.Select)
	var prev, best *stepSummary
	for t := 0; t < cfg.Steps; t++ {
		t0 := time.Now()
		parallelStep(nodes, cfg.CoresPerNode)
		t1 := time.Now()
		step := reduceStep(cfg, nodes, mapper)
		t2 := time.Now()
		res.Simulate += t1.Sub(t0)
		res.Reduce += t2.Sub(t1)
		if t > 0 {
			out := g.Offer(t, step.Dissimilarity(&prev.NodeSummary, cfg.Metric))
			res.Select += time.Since(t2)
			if out&selection.Keep != 0 {
				best = step
			}
			if out&selection.Commit == 0 {
				continue
			}
			step = best
		}
		prev = step
		res.write(cfg, step, mapper)
	}
	res.Result = g.Result
	if cfg.Remote != nil {
		res.Output = cfg.Remote.ModeledTime()
	}
	return res, nil
}

// write accounts one selected step's output. The nodes of a bitmap step
// encode their parts first, concurrently, as bitmap generation.
func (r *Result) write(cfg Config, s *stepSummary, mapper binning.Mapper) {
	if cfg.Method == Bitmaps {
		start := time.Now()
		var wg sync.WaitGroup
		for k, part := range s.Parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := index.FromRuns(part.(*selection.RunSummary).Runs, mapper, cfg.CoresPerNode, codec.WAH)
				s.outBytes[k] = store.IndexSize(x)
			}()
		}
		wg.Wait()
		r.Reduce += time.Since(start)
	}
	var slowest int64
	for _, b := range s.outBytes {
		r.BytesWritten += b
		slowest = max(slowest, b)
		if cfg.Remote != nil {
			cfg.Remote.Account(b)
		}
	}
	if cfg.Remote == nil {
		// Local disks write in parallel; the slowest node gates.
		r.Output += iosim.ModelTransfer(slowest, cfg.LocalMBps)
	}
}

// buildNodes decomposes the global grid into z-slabs with ghost planes and
// wires neighbor channels. The global domain ends keep the physical
// Dirichlet boundary instead of a ghost plane.
func buildNodes(cfg Config) ([]*node, error) {
	nodes := make([]*node, cfg.Nodes)
	for k := range nodes {
		nz := cfg.GridZ / cfg.Nodes
		if k < cfg.GridZ%cfg.Nodes {
			nz++
		}
		lo := min(k, 1)
		s, err := heat3d.New(cfg.GridX, cfg.GridY, lo+nz+min(cfg.Nodes-1-k, 1))
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", k, err)
		}
		nodes[k] = &node{sim: s, lo: lo, hi: lo + nz, up: make(chan []float64, 1), down: make(chan []float64, 1)}
	}
	return nodes, nil
}

// parallelStep performs one halo exchange plus one simulation step on every
// node concurrently. Channels carry the boundary planes, as MPI would.
func parallelStep(nodes []*node, coresPerNode int) {
	var wg sync.WaitGroup
	for k := range nodes {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			n := nodes[k]
			_, _, nz := n.sim.Dims()
			// Send interior boundary planes to neighbors (one-plane buffers:
			// no send blocks), then install the ghosts received from them.
			if k < len(nodes)-1 {
				nodes[k+1].down <- n.sim.PlaneZ(nz-2, nil)
			}
			if k > 0 {
				nodes[k-1].up <- n.sim.PlaneZ(1, nil)
				n.sim.SetPlaneZ(0, <-n.down)
			}
			if k < len(nodes)-1 {
				n.sim.SetPlaneZ(nz-1, <-n.up)
			}
			n.sim.StepInto(coresPerNode, nil)
		}(k)
	}
	wg.Wait()
}

// reduceStep builds the per-node parts concurrently: a node's bitmap part is
// its run stream, which the scores merge and write encodes.
func reduceStep(cfg Config, nodes []*node, mapper binning.Mapper) *stepSummary {
	s := &stepSummary{
		NodeSummary: selection.NodeSummary{Parts: make([]selection.Summary, len(nodes))},
		outBytes:    make([]int64, len(nodes)),
	}
	var wg sync.WaitGroup
	for k := range nodes {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			// Node k's own planes, without ghosts, so the same global element
			// set is analyzed at any node count: mapped in place for the
			// bitmaps, copied for full data, as the simulator steps on.
			n := nodes[k]
			nx, ny, _ := n.sim.Dims()
			own := n.sim.Temperature()[n.lo*nx*ny : n.hi*nx*ny]
			if cfg.Method == Bitmaps {
				ids := index.MapIDs(own, mapper, cfg.CoresPerNode)
				s.Parts[k] = selection.NewRunSummary(index.ScanIDs(ids, mapper, cfg.CoresPerNode), 1)
			} else {
				s.Parts[k] = selection.NewDataSummary(append([]float64(nil), own...), mapper)
				s.outBytes[k] = store.RawSize(len(own))
			}
		}(k)
	}
	wg.Wait()
	return s
}
