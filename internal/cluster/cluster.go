// Package cluster runs the paper's parallel in-situ environment (§5.3,
// Figure 13): the global Heat3D grid is decomposed into z-slabs, one per
// simulated node; nodes exchange boundary planes every step (goroutines and
// channels standing in for MPI); each node generates bitmaps over its own
// slab ("distributed bitmaps", Figure 2); and the selection metrics are
// computed globally by reducing per-node histograms and joint counts —
// never moving the data itself. Output goes either to per-node local disks
// (parallel) or to one shared remote data server (contended).
package cluster

import (
	"fmt"
	"sync"
	"time"

	"insitubits/internal/binning"
	"insitubits/internal/index"
	"insitubits/internal/iosim"
	"insitubits/internal/metrics"
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

	Steps  int
	Select int
	Metric selection.Metric
	Method Method
	Bins   int

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
	if c.Bins < 1 {
		return fmt.Errorf("cluster: %d bins", c.Bins)
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
	Selected                         []int
	BytesWritten                     int64
}

// Total sums the phases.
func (r *Result) Total() time.Duration { return r.Simulate + r.Reduce + r.Select + r.Output }

// node is one simulated machine.
type node struct {
	sim  *heat3d.Sim
	up   chan []float64 // plane flowing to the node above (z+)
	down chan []float64 // plane flowing to the node below (z-)
}

// stepSummary is one global time-step: per-node pieces of either indices or
// raw slabs, plus the bytes its selected form would occupy on storage.
type stepSummary struct {
	step     int
	indices  []*index.Index // Bitmaps
	slabs    [][]float64    // FullData
	mapper   binning.Mapper
	outBytes []int64 // per node
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
	res := &Result{}
	sc := newScratch(cfg.Bins)
	// Streaming greedy selection over intervals (as in the single-node
	// pipeline): step 0 is kept, then one winner per interval.
	intervals := selection.FixedLength{}.Partition(make([]float64, cfg.Steps), cfg.Select)
	ivPos := 0
	var prev, best *stepSummary
	bestScore := 0.0
	commit := func(s *stepSummary) {
		res.Selected = append(res.Selected, s.step)
		prev = s
		var maxNode int64
		for _, b := range s.outBytes {
			res.BytesWritten += b
			if b > maxNode {
				maxNode = b
			}
			if cfg.Remote != nil {
				cfg.Remote.Account(b)
			}
		}
		if cfg.Remote == nil {
			// Local disks write in parallel; the slowest node gates.
			res.Output += iosim.ModelTransfer(maxNode, cfg.LocalMBps)
		}
	}

	for t := 0; t < cfg.Steps; t++ {
		t0 := time.Now()
		parallelStep(nodes, cfg.CoresPerNode)
		t1 := time.Now()
		summary := reduceStep(cfg, nodes, mapper, t)
		t2 := time.Now()
		res.Simulate += t1.Sub(t0)
		res.Reduce += t2.Sub(t1)

		if t == 0 {
			commit(summary)
			continue
		}
		t3 := time.Now()
		score := dissimilarity(summary, prev, cfg.Metric, sc)
		res.Select += time.Since(t3)
		if ivPos < len(intervals) {
			iv := intervals[ivPos]
			if t >= iv[0] && t < iv[1] {
				if best == nil || score > bestScore {
					best, bestScore = summary, score
				}
				if t == iv[1]-1 {
					commit(best)
					best = nil
					ivPos++
				}
			}
		}
	}
	if cfg.Remote != nil {
		res.Output = cfg.Remote.ModeledTime()
	}
	return res, nil
}

// buildNodes decomposes the global grid into z-slabs with ghost planes and
// wires neighbor channels.
func buildNodes(cfg Config) ([]*node, error) {
	slab := cfg.GridZ / cfg.Nodes
	extra := cfg.GridZ % cfg.Nodes
	nodes := make([]*node, cfg.Nodes)
	for k := range nodes {
		nz := slab
		if k < extra {
			nz++
		}
		// +2 ghost planes except at the global domain ends (which keep the
		// physical Dirichlet boundary).
		local := nz
		if k > 0 {
			local++
		}
		if k < cfg.Nodes-1 {
			local++
		}
		s, err := heat3d.New(cfg.GridX, cfg.GridY, local)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", k, err)
		}
		nodes[k] = &node{
			sim:  s,
			up:   make(chan []float64, 1),
			down: make(chan []float64, 1),
		}
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
			// Send interior boundary planes to neighbors.
			if k < len(nodes)-1 {
				nodes[k+1].down <- n.sim.PlaneZ(nz-2, nil)
			}
			if k > 0 {
				nodes[k-1].up <- n.sim.PlaneZ(1, nil)
			}
			// Install ghosts received from neighbors.
			if k > 0 {
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

// reduceStep builds the per-node summaries concurrently.
func reduceStep(cfg Config, nodes []*node, mapper binning.Mapper, t int) *stepSummary {
	s := &stepSummary{step: t, mapper: mapper, outBytes: make([]int64, len(nodes))}
	switch cfg.Method {
	case Bitmaps:
		s.indices = make([]*index.Index, len(nodes))
	default:
		s.slabs = make([][]float64, len(nodes))
	}
	var wg sync.WaitGroup
	for k := range nodes {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			data := interiorCopy(cfg, nodes, k)
			if cfg.Method == Bitmaps {
				x := index.BuildParallel(data, mapper, cfg.CoresPerNode)
				s.indices[k] = x
				s.outBytes[k] = store.IndexSize(x)
			} else {
				s.slabs[k] = data
				s.outBytes[k] = store.RawSize(len(data))
			}
		}(k)
	}
	wg.Wait()
	return s
}

// interiorCopy extracts node k's owned planes (excluding ghosts) so the
// same global element set is analyzed regardless of node count.
func interiorCopy(cfg Config, nodes []*node, k int) []float64 {
	n := nodes[k]
	nx, ny, nz := n.sim.Dims()
	lo, hi := 0, nz
	if k > 0 {
		lo++
	}
	if k < len(nodes)-1 {
		hi--
	}
	plane := nx * ny
	out := make([]float64, (hi-lo)*plane)
	copy(out, n.sim.Temperature()[lo*plane:hi*plane])
	return out
}

// scratch holds reusable metric buffers so scoring a step pair allocates
// nothing proportional to node count — essential at high node counts where
// per-node joint-matrix allocations would otherwise dominate selection.
type scratch struct {
	ha, hb     []int
	joint      [][]int
	jointCells []int
	ids        []int32
}

func newScratch(nBins int) *scratch {
	s := &scratch{
		ha:         make([]int, nBins),
		hb:         make([]int, nBins),
		joint:      make([][]int, nBins),
		jointCells: make([]int, nBins*nBins),
	}
	cells := s.jointCells
	for i := range s.joint {
		s.joint[i], cells = cells[:nBins], cells[nBins:]
	}
	return s
}

func (s *scratch) reset() {
	for i := range s.ha {
		s.ha[i] = 0
		s.hb[i] = 0
	}
	for i := range s.jointCells {
		s.jointCells[i] = 0
	}
}

// dissimilarity computes the global metric by reducing per-node pieces into
// the shared scratch buffers.
func dissimilarity(a, b *stepSummary, metric selection.Metric, sc *scratch) float64 {
	switch metric {
	case selection.EMDCount, selection.ConditionalEntropy:
		sc.reset()
		wantJoint := metric == selection.ConditionalEntropy
		n := 0
		for k := 0; k < a.nNodes(); k++ {
			n += accumulateNode(a, b, k, wantJoint, sc)
		}
		if metric == selection.EMDCount {
			return metrics.EMDCount(sc.ha, sc.hb)
		}
		return metrics.ConditionalEntropy(sc.joint, sc.ha, sc.hb, n)
	case selection.EMDSpatial:
		// Per-bin differences sum across nodes; the CFP accumulates over the
		// global per-bin differences.
		diffs := make([]int, a.mapper.Bins())
		for k := 0; k < a.nNodes(); k++ {
			addSpatialDiffs(a, b, k, diffs, sc)
		}
		return metrics.EMDFromDiffs(diffs)
	default:
		panic("cluster: unsupported metric " + metric.String())
	}
}

func (s *stepSummary) nNodes() int {
	if s.indices != nil {
		return len(s.indices)
	}
	return len(s.slabs)
}

// accumulateNode adds node k's marginals (and, when requested, its joint
// distribution) into the scratch buffers and returns its element count.
// For bitmaps, the joint tally decodes both slab indices into bin ids in
// O(slab); the decoded-id buffer is reused across nodes and steps.
func accumulateNode(a, b *stepSummary, k int, wantJoint bool, sc *scratch) int {
	if a.indices != nil {
		xa, xb := a.indices[k], b.indices[k]
		for i, c := range xa.Histogram() {
			sc.ha[i] += c
		}
		for j, c := range xb.Histogram() {
			sc.hb[j] += c
		}
		if wantJoint {
			ida, idb := sc.binIDs(xa, xb)
			for p := range ida {
				sc.joint[ida[p]][idb[p]]++
			}
		}
		return xa.N()
	}
	da, db := a.slabs[k], b.slabs[k]
	for p := range da {
		i := a.mapper.Bin(da[p])
		j := b.mapper.Bin(db[p])
		sc.ha[i]++
		sc.hb[j]++
		if wantJoint {
			sc.joint[i][j]++
		}
	}
	return len(da)
}

// binIDs decodes two slab indices into the scratch id buffer, which is
// reused across nodes and steps.
func (sc *scratch) binIDs(xa, xb *index.Index) (ida, idb []int32) {
	n := xa.N()
	if cap(sc.ids) < 2*n {
		sc.ids = make([]int32, 2*n)
	}
	return xa.BinIDs(sc.ids[:n]), xb.BinIDs(sc.ids[n : 2*n])
}

// addSpatialDiffs adds node k's Equation 3 differences into diffs.
func addSpatialDiffs(a, b *stepSummary, k int, diffs []int, sc *scratch) {
	if a.indices != nil {
		ida, idb := sc.binIDs(a.indices[k], b.indices[k])
		metrics.SpatialDiffs(ida, idb, diffs)
		return
	}
	da, db := a.slabs[k], b.slabs[k]
	for i := range da {
		ba, bb := a.mapper.Bin(da[i]), b.mapper.Bin(db[i])
		if ba != bb {
			diffs[ba]++
			diffs[bb]++
		}
	}
}
