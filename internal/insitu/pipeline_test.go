package insitu

import (
	"os"
	"slices"
	"testing"
	"time"

	"insitubits/internal/iosim"
	"insitubits/internal/selection"
	"insitubits/internal/sim/heat3d"
	"insitubits/internal/sim/lulesh"
	"insitubits/internal/telemetry"
)

func heatConfig(t *testing.T, method Method) Config {
	t.Helper()
	h, err := heat3d.New(16, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	st, err := iosim.NewStore(100)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Sim:    h,
		Steps:  20,
		Select: 5,
		Method: method,
		Bins:   64,
		Metric: selection.ConditionalEntropy,
		Cores:  4,
		Store:  st,
	}
}

func TestValidation(t *testing.T) {
	base := heatConfig(t, Bitmaps)
	bad := []func(*Config){
		func(c *Config) { c.Sim = nil },
		func(c *Config) { c.Steps = 0 },
		func(c *Config) { c.Select = 0 },
		func(c *Config) { c.Select = c.Steps + 1 },
		func(c *Config) { c.Bins = 0 },
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Method = Sampling; c.SamplePct = 0 },
		func(c *Config) { c.Method = Sampling; c.SamplePct = 150 },
		func(c *Config) { c.Metric = selection.Metric(7) },
	}
	for i, mutate := range bad {
		cfg := base
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		// Refused before anything is simulated or written.
		if n := base.Store.BytesWritten(); n != 0 {
			t.Fatalf("bad config %d wrote %d bytes before failing", i, n)
		}
	}
}

func TestRunBitmaps(t *testing.T) {
	cfg := heatConfig(t, Bitmaps)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != cfg.Select {
		t.Fatalf("selected %d steps, want %d: %v", len(res.Selected), cfg.Select, res.Selected)
	}
	if res.Selected[0] != 0 {
		t.Fatal("step 0 not selected")
	}
	for i := 1; i < len(res.Selected); i++ {
		if res.Selected[i] <= res.Selected[i-1] || res.Selected[i] >= cfg.Steps {
			t.Fatalf("selection invalid: %v", res.Selected)
		}
	}
	if res.BytesWritten <= 0 {
		t.Fatal("nothing written")
	}
	if res.BytesWritten != cfg.Store.BytesWritten() {
		t.Fatalf("result says %d bytes, store says %d", res.BytesWritten, cfg.Store.BytesWritten())
	}
	if res.SummaryBytes <= 0 || res.SummaryBytes >= res.StepBytes {
		t.Fatalf("bitmap summary %d bytes vs raw step %d: not a reduction", res.SummaryBytes, res.StepBytes)
	}
	if res.Breakdown.Simulate <= 0 || res.Breakdown.Reduce <= 0 {
		t.Fatalf("phases unmeasured: %+v", res.Breakdown)
	}
	if res.Breakdown.Output <= 0 {
		t.Fatal("output unmodelled")
	}
}

func TestBitmapsWriteLessThanFullData(t *testing.T) {
	// The paper's I/O claim: selected bitmaps are much smaller than
	// selected raw data.
	resB, err := Run(heatConfig(t, Bitmaps))
	if err != nil {
		t.Fatal(err)
	}
	resF, err := Run(heatConfig(t, FullData))
	if err != nil {
		t.Fatal(err)
	}
	if resB.BytesWritten >= resF.BytesWritten/2 {
		t.Fatalf("bitmaps wrote %d bytes, full data %d: insufficient reduction",
			resB.BytesWritten, resF.BytesWritten)
	}
	if resB.PeakMemory >= resF.PeakMemory {
		t.Fatalf("bitmap memory %d not below full-data %d", resB.PeakMemory, resF.PeakMemory)
	}
}

func TestMethodsAgreeOnSelection(t *testing.T) {
	// Bitmaps and full data must pick identical steps (no accuracy loss);
	// both runs use fresh simulators with identical trajectories.
	resB, err := Run(heatConfig(t, Bitmaps))
	if err != nil {
		t.Fatal(err)
	}
	resF, err := Run(heatConfig(t, FullData))
	if err != nil {
		t.Fatal(err)
	}
	if len(resB.Selected) != len(resF.Selected) {
		t.Fatalf("selection lengths differ: %v vs %v", resB.Selected, resF.Selected)
	}
	for i := range resB.Selected {
		if resB.Selected[i] != resF.Selected[i] {
			t.Fatalf("bitmaps selected %v, full data %v", resB.Selected, resF.Selected)
		}
	}
}

func TestSamplingMethodRuns(t *testing.T) {
	cfg := heatConfig(t, Sampling)
	cfg.SamplePct = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != cfg.Select {
		t.Fatalf("selected %v", res.Selected)
	}
	// A 10% sample is about 10% of the raw bytes.
	if res.SummaryBytes > res.StepBytes/5 {
		t.Fatalf("sample summary %d vs step %d", res.SummaryBytes, res.StepBytes)
	}
}

// The selection is a pure function of the data: how the cores are split,
// and so how far the simulator runs ahead of the reduction, changes
// throughput only — every split selects what shared cores select and
// writes as many bytes.
func TestSeparateCoresMatchesShared(t *testing.T) {
	shared, err := Run(heatConfig(t, Bitmaps))
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range []SeparateCores{{SimCores: 2, ReduceCores: 2}, {SimCores: 1, ReduceCores: 1}, {SimCores: 3, ReduceCores: 1}} {
		sep := heatConfig(t, Bitmaps)
		sep.Strategy = split
		res, err := Run(sep)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Selected, shared.Selected) {
			t.Fatalf("strategies disagree: shared %v, %s %v", shared.Selected, split.Describe(), res.Selected)
		}
		if res.BytesWritten != shared.BytesWritten {
			t.Fatalf("bytes differ: shared %d, %s %d", shared.BytesWritten, split.Describe(), res.BytesWritten)
		}
	}
}

func TestSeparateCoresValidation(t *testing.T) {
	cfg := heatConfig(t, Bitmaps)
	cfg.Strategy = SeparateCores{SimCores: 0, ReduceCores: 2}
	if _, err := Run(cfg); err == nil {
		t.Error("zero sim cores accepted")
	}
	cfg.Strategy = SeparateCores{SimCores: 3, ReduceCores: 3}
	if _, err := Run(cfg); err == nil {
		t.Error("oversubscribed split accepted")
	}
}

func TestStrategyDescribe(t *testing.T) {
	if (SharedCores{}).Describe() != "c_all" {
		t.Error("SharedCores name")
	}
	if (SeparateCores{SimCores: 12, ReduceCores: 16}).Describe() != "c12_c16" {
		t.Error("SeparateCores name")
	}
}

func TestCalibrate(t *testing.T) {
	cfg := heatConfig(t, Bitmaps)
	cfg.Cores = 8
	split, err := Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if split.SimCores < 1 || split.ReduceCores < 1 {
		t.Fatalf("degenerate split %+v", split)
	}
	if split.SimCores+split.ReduceCores != cfg.Cores {
		t.Fatalf("split %+v does not use all %d cores", split, cfg.Cores)
	}
}

// SplitCores is Equations 1 and 2: the simulate side's share of the time is
// its share of the cores, rounded down, and each side keeps one core.
func TestSplitCores(t *testing.T) {
	for _, c := range []struct {
		cores       int
		sim, reduce time.Duration
		want        SeparateCores
	}{
		{8, 3 * time.Second, 5 * time.Second, SeparateCores{3, 5}}, // proportional
		{8, time.Second, time.Second, SeparateCores{4, 4}},
		{12, 2 * time.Second, time.Second, SeparateCores{8, 4}},
		{7, 1, 1, SeparateCores{3, 4}},           // 3.5 rounds down
		{8, 0, time.Second, SeparateCores{1, 7}}, // no simulate time: clamped to 1
		{8, time.Second, 0, SeparateCores{7, 1}}, // no reduce time: clamped to cores−1
		{2, time.Hour, time.Second, SeparateCores{1, 1}},
		{4, 0, 0, SeparateCores{1, 3}},
	} {
		if got := SplitCores(c.cores, c.sim, c.reduce); got != c.want {
			t.Errorf("SplitCores(%d, %v, %v) = %s, want %s", c.cores, c.sim, c.reduce, got.Describe(), c.want.Describe())
		}
	}
}

// Calibrate times its steps into a phase record of its own: it publishes
// no run status and writes nothing to the output directory.
func TestCalibratePublishesNothing(t *testing.T) {
	cfg := heatConfig(t, Bitmaps)
	cfg.Telemetry, cfg.OutputDir = telemetry.NewRegistry(), t.TempDir()
	if _, err := Calibrate(cfg); err != nil {
		t.Fatal(err)
	}
	if v, ok := cfg.Telemetry.StatusValue(RunStatusName); ok {
		t.Errorf("Calibrate published a %q status: %+v", RunStatusName, v)
	}
	entries, err := os.ReadDir(cfg.OutputDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("Calibrate wrote %d entries to the output directory, first %q", len(entries), entries[0].Name())
	}
}

// Calibrate returns a split Run accepts or an error: it validates the
// configuration first, and one core cannot be split.
func TestCalibrateRejectsUnsplittableConfigs(t *testing.T) {
	one := heatConfig(t, Bitmaps)
	one.Cores = 1
	if split, err := Calibrate(one); err == nil {
		t.Errorf("one core calibrated to %+v, want an error", split)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Calibrate of an empty config panicked: %v", r)
			}
		}()
		if split, err := Calibrate(Config{}); err == nil {
			t.Errorf("empty config calibrated to %+v, want an error", split)
		}
	}()
}

func TestLuleshPipelineAllArrays(t *testing.T) {
	l, err := lulesh.New(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := iosim.NewStore(100)
	cfg := Config{
		Sim:    l,
		Steps:  12,
		Select: 4,
		Method: Bitmaps,
		Bins:   48,
		Metric: selection.EMDSpatial,
		Cores:  4,
		Store:  st,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 4 {
		t.Fatalf("selected %v", res.Selected)
	}
	// 12 arrays per step: the raw step size must reflect all of them.
	if res.StepBytes != int64(12*8*l.Elements()) {
		t.Fatalf("StepBytes=%d", res.StepBytes)
	}
}

// Only the written steps are bitmap-indexed: every step is scanned into its
// run streams, and a step's bitmaps are encoded when it is committed — one
// index build per variable of each selected step, one encode phase per
// selected step, and a codec mix over exactly their bins — on a one- and a
// twelve-variable simulator under both strategies. (The index counters live
// in telemetry.Default, so this reads before/after deltas; package tests
// never run pipelines in parallel with this one.)
func TestOnlyWrittenStepsAreEncoded(t *testing.T) {
	builds := telemetry.Default.Counter("index.builds")
	for name, cfg := range map[string]Config{"heat3d": heatConfig(t, Bitmaps), "lulesh": luleshConfig(t)} {
		for strategyName, strategy := range bothStrategies {
			cfg.Strategy, cfg.Telemetry = strategy, telemetry.NewRegistry()
			before := builds.Value()
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			vars, written := len(cfg.Sim.Vars()), len(res.Selected)
			if got := builds.Value() - before; got != int64(written*vars) {
				t.Errorf("%s %s: %d indexes built, want %d written steps × %d vars", name, strategyName, got, written, vars)
			}
			v, _ := cfg.Telemetry.StatusValue(RunStatusName)
			st := v.(RunStatus)
			if got := st.Phases[SpanEncode].Count; got != int64(written) {
				t.Errorf("%s %s: %d encode phases, want one per written step (%d)", name, strategyName, got, written)
			}
			bins := int64(0)
			for _, n := range st.CodecBins {
				bins += n
			}
			if want := int64(written * vars * cfg.Bins); bins != want {
				t.Errorf("%s %s: codec mix over %d bins, want the written steps' %d", name, strategyName, bins, want)
			}
			if written != cfg.Select || res.Breakdown.Reduce <= 0 {
				t.Errorf("%s %s: %d steps written, reduce %v", name, strategyName, written, res.Breakdown.Reduce)
			}
		}
	}
}

// luleshConfig is a bitmap run of the twelve-array simulator.
func luleshConfig(t *testing.T) Config {
	t.Helper()
	l, err := lulesh.New(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Sim: l, Steps: 12, Select: 4, Method: Bitmaps, Bins: 48, Metric: selection.EMDSpatial, Cores: 4}
}

func TestMemoryModel(t *testing.T) {
	// Full data: prev + in-flight + window raw steps.
	if got := MemoryModel(FullData, 100, 0, 10); got != 1200 {
		t.Fatalf("full data model = %d", got)
	}
	// Bitmaps: in-flight raw + prev summary + window summaries.
	if got := MemoryModel(Bitmaps, 100, 20, 10); got != 100+20+200 {
		t.Fatalf("bitmaps model = %d", got)
	}
	// Reduction only pays off when summaries are smaller — and then the
	// model must order the methods the way Figure 11 does.
	if MemoryModel(Bitmaps, 100, 20, 10) >= MemoryModel(FullData, 100, 20, 10) {
		t.Fatal("bitmaps not smaller in model")
	}
}

func TestMethodString(t *testing.T) {
	for _, m := range []Method{Bitmaps, FullData, Sampling, Method(9)} {
		if m.String() == "" {
			t.Fatalf("empty name for %d", int(m))
		}
	}
}
