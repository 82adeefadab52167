package cluster

import (
	"math"
	"reflect"
	"testing"

	"insitubits/internal/index"
	"insitubits/internal/iosim"
	"insitubits/internal/selection"
	"insitubits/internal/sim/heat3d"
)

func baseConfig() Config {
	return Config{
		Nodes:        2,
		CoresPerNode: 2,
		GridX:        12, GridY: 12, GridZ: 24,
		Steps:     12,
		Select:    4,
		Metric:    selection.ConditionalEntropy,
		Method:    Bitmaps,
		Bins:      64,
		LocalMBps: 200,
	}
}

func TestValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.CoresPerNode = 0 },
		func(c *Config) { c.GridZ = 5; c.Nodes = 4 },
		func(c *Config) { c.Steps = 0 },
		func(c *Config) { c.Select = 0 },
		func(c *Config) { c.Select = c.Steps + 1 },
		func(c *Config) { c.Bins = 0 },
		func(c *Config) { c.Bins = index.MaxIDBins + 1 },
		func(c *Config) { c.Metric = selection.Metric(7) },
		func(c *Config) { c.Method = Method(9) },
		func(c *Config) { c.LocalMBps = 0 },
	}
	for i, mutate := range bad {
		cfg := baseConfig()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRunBitmapsLocal(t *testing.T) {
	cfg := baseConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != cfg.Select || res.Selected[0] != 0 {
		t.Fatalf("selected %v", res.Selected)
	}
	if res.BytesWritten <= 0 || res.Output <= 0 {
		t.Fatalf("output unaccounted: %d bytes, %v", res.BytesWritten, res.Output)
	}
	if res.Simulate <= 0 || res.Reduce <= 0 {
		t.Fatalf("phases unmeasured: %+v", res)
	}
}

func TestRemoteSharedContention(t *testing.T) {
	// The same run against a shared 100 MB/s remote store must model a
	// transfer time based on TOTAL bytes, and full data must pay far more
	// than bitmaps — the Figure 13 remote-series gap.
	mk := func(method Method) *Result {
		cfg := baseConfig()
		cfg.Method = method
		remote, err := iosim.NewStore(100)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Remote = remote
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Output != remote.ModeledTime() {
			t.Fatalf("output %v != store model %v", res.Output, remote.ModeledTime())
		}
		return res
	}
	rb := mk(Bitmaps)
	rf := mk(FullData)
	if rb.BytesWritten >= rf.BytesWritten/2 {
		t.Fatalf("bitmaps wrote %d, full data %d", rb.BytesWritten, rf.BytesWritten)
	}
	if rb.Output >= rf.Output {
		t.Fatalf("bitmaps remote output %v not below full data %v", rb.Output, rf.Output)
	}
}

func TestMethodsSelectSameSteps(t *testing.T) {
	// Bitmaps vs full data on the cluster path: identical selections and
	// winning scores to the bit at every node count (global metrics reduce
	// to identical integers).
	for _, nodes := range []int{1, 2, 4} {
		run := func(m Method) *Result {
			cfg := baseConfig()
			cfg.Method, cfg.Nodes = m, nodes
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		rb, rf := run(Bitmaps), run(FullData)
		if !reflect.DeepEqual(rb.Selected, rf.Selected) || len(rb.Scores) != len(rb.Selected)-1 {
			t.Fatalf("nodes=%d: bitmaps %v, full data %v", nodes, rb.Selected, rf.Selected)
		}
		for i := range rb.Scores {
			if math.Float64bits(rb.Scores[i]) != math.Float64bits(rf.Scores[i]) {
				t.Fatalf("nodes=%d: score %d: bitmaps %v, full data %v", nodes, i, rb.Scores[i], rf.Scores[i])
			}
		}
	}
}

// TestGoldenFig13Quick pins what a run at Figure 13's -quick dimensions
// selects, writes and scores, for every metric, method and node count. The
// table was recorded before the cluster scored through
// selection.NodeSummary and selection.Greedy (EXPERIMENTS.md, "One greedy
// and one scorer"); the scores compare as float64 bits.
func TestGoldenFig13Quick(t *testing.T) {
	type golden struct {
		metric   selection.Metric
		method   Method
		nodes    int
		selected []int
		bytes    int64
		scores   []uint64
	}
	ce, count, spatial := selection.ConditionalEntropy, selection.EMDCount, selection.EMDSpatial
	for _, g := range []golden{
		{ce, Bitmaps, 1, []int{0, 4, 8, 11}, 26624, []uint64{0x3fe48bd750f4a8a0, 0x3fe18d42add33596, 0x3fddaecef5b73e80}},
		{ce, Bitmaps, 2, []int{0, 4, 8, 11}, 52012, []uint64{0x3feff6115fa19904, 0x3fedf8ad83ed88dc, 0x3feb2063fcc3460e}},
		{ce, Bitmaps, 4, []int{0, 4, 8, 11}, 101896, []uint64{0x3ff9b9510989eb41, 0x3ff86159686d67c0, 0x3ff69f353ceb8196}},
		{ce, FullData, 1, []int{0, 4, 8, 11}, 221264, []uint64{0x3fe48bd750f4a8a0, 0x3fe18d42add33596, 0x3fddaecef5b73e80}},
		{ce, FullData, 2, []int{0, 4, 8, 11}, 221344, []uint64{0x3feff6115fa19904, 0x3fedf8ad83ed88dc, 0x3feb2063fcc3460e}},
		{ce, FullData, 4, []int{0, 4, 8, 11}, 221504, []uint64{0x3ff9b9510989eb41, 0x3ff86159686d67c0, 0x3ff69f353ceb8196}},
		{count, Bitmaps, 1, []int{0, 4, 8, 11}, 26624, []uint64{0x40bbe30000000000, 0x40b5f00000000000, 0x40ad0e0000000000}},
		{count, Bitmaps, 2, []int{0, 4, 8, 11}, 52012, []uint64{0x40c6090000000000, 0x40c2308000000000, 0x40b8d60000000000}},
		{count, Bitmaps, 4, []int{0, 4, 8, 11}, 101896, []uint64{0x40d30a8000000000, 0x40d0464000000000, 0x40c6a88000000000}},
		{count, FullData, 1, []int{0, 4, 8, 11}, 221264, []uint64{0x40bbe30000000000, 0x40b5f00000000000, 0x40ad0e0000000000}},
		{count, FullData, 2, []int{0, 4, 8, 11}, 221344, []uint64{0x40c6090000000000, 0x40c2308000000000, 0x40b8d60000000000}},
		{count, FullData, 4, []int{0, 4, 8, 11}, 221504, []uint64{0x40d30a8000000000, 0x40d0464000000000, 0x40c6a88000000000}},
		{spatial, Bitmaps, 1, []int{0, 4, 8, 11}, 26624, []uint64{0x410e852800000000, 0x4112236800000000, 0x411179f400000000}},
		{spatial, Bitmaps, 2, []int{0, 4, 8, 11}, 52012, []uint64{0x411a1f7800000000, 0x411e812c00000000, 0x411cb5b800000000}},
		{spatial, Bitmaps, 4, []int{0, 4, 8, 11}, 101896, []uint64{0x412692ac00000000, 0x4129185200000000, 0x4127321e00000000}},
		{spatial, FullData, 1, []int{0, 4, 8, 11}, 221264, []uint64{0x410e852800000000, 0x4112236800000000, 0x411179f400000000}},
		{spatial, FullData, 2, []int{0, 4, 8, 11}, 221344, []uint64{0x411a1f7800000000, 0x411e812c00000000, 0x411cb5b800000000}},
		{spatial, FullData, 4, []int{0, 4, 8, 11}, 221504, []uint64{0x412692ac00000000, 0x4129185200000000, 0x4127321e00000000}},
	} {
		res, err := Run(Config{
			Nodes: g.nodes, CoresPerNode: 2, GridX: 12, GridY: 12, GridZ: 48,
			Steps: 12, Select: 4, Metric: g.metric, Method: g.method, Bins: 160, LocalMBps: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		scores := make([]uint64, len(res.Scores))
		for i, s := range res.Scores {
			scores[i] = math.Float64bits(s)
		}
		if !reflect.DeepEqual(res.Selected, g.selected) || res.BytesWritten != g.bytes || !reflect.DeepEqual(scores, g.scores) {
			t.Errorf("%v, method %d, %d nodes: selected %v, %d bytes, scores %#x; want %v, %d, %#x",
				g.metric, g.method, g.nodes, res.Selected, res.BytesWritten, scores, g.selected, g.bytes, g.scores)
		}
	}
}

func TestAllMetricsRun(t *testing.T) {
	for _, m := range []selection.Metric{selection.ConditionalEntropy, selection.EMDCount, selection.EMDSpatial} {
		cfg := baseConfig()
		cfg.Metric = m
		cfg.Steps, cfg.Select = 8, 3
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(res.Selected) != 3 {
			t.Fatalf("%v: selected %v", m, res.Selected)
		}
	}
}

// TestHaloExchangeMatchesGlobalSim verifies the decomposition is exact: a
// 2-node cluster whose slabs are initialized from a single global
// simulation evolves identically to that global simulation (sources off).
func TestHaloExchangeMatchesGlobalSim(t *testing.T) {
	const nx, ny, nz = 8, 8, 16
	global, err := heat3d.New(nx, ny, nz)
	if err != nil {
		t.Fatal(err)
	}
	global.SourceEnabled = false

	cfg := baseConfig()
	cfg.GridX, cfg.GridY, cfg.GridZ = nx, ny, nz
	nodes, err := buildNodes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 owns planes [0,8) plus ghost 8; node 1 owns [8,16) plus ghost 7.
	plane := make([]float64, nx*ny)
	for z := 0; z < 9; z++ {
		nodes[0].sim.SetPlaneZ(z, global.PlaneZ(z, plane))
	}
	for z := 0; z < 9; z++ {
		nodes[1].sim.SetPlaneZ(z, global.PlaneZ(z+7, plane))
	}
	for _, n := range nodes {
		n.sim.SourceEnabled = false
	}

	for step := 0; step < 10; step++ {
		global.StepInto(2, nil)
		parallelStep(nodes, 2)
	}

	g := global.Temperature()
	for z := 0; z < 8; z++ { // node 0 interior
		got := nodes[0].sim.PlaneZ(z, nil)
		want := global.PlaneZ(z, nil)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node 0 plane %d cell %d: %g vs %g", z, i, got[i], want[i])
			}
		}
	}
	for z := 8; z < 16; z++ { // node 1 interior (local plane z-7)
		got := nodes[1].sim.PlaneZ(z-7, nil)
		want := global.PlaneZ(z, nil)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node 1 plane %d cell %d: %g vs %g", z, i, got[i], want[i])
			}
		}
	}
	_ = g
}

func TestInteriorCoversGlobalGrid(t *testing.T) {
	// The union of node interiors must equal the global element count for
	// any node count, so analysis always sees the whole domain.
	for _, nodes := range []int{1, 2, 3, 5} {
		cfg := baseConfig()
		cfg.Nodes = nodes
		cfg.GridZ = 30
		ns, err := buildNodes(cfg)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, n := range ns {
			total += (n.hi - n.lo) * cfg.GridX * cfg.GridY
		}
		if want := cfg.GridX * cfg.GridY * cfg.GridZ; total != want {
			t.Fatalf("nodes=%d: interiors cover %d cells, want %d", nodes, total, want)
		}
	}
}

func TestSingleNodeDegeneratesGracefully(t *testing.T) {
	cfg := baseConfig()
	cfg.Nodes = 1
	cfg.GridZ = 12
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != cfg.Select {
		t.Fatalf("selected %v", res.Selected)
	}
}
