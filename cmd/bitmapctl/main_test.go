package main

import (
	"os"
	"path/filepath"
	"testing"

	"insitubits"
)

// The subcommands are plain functions, so the CLI is tested end to end
// through temp files without exec'ing anything.

func TestBuildInfoQueryFlow(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "data.israw")
	idx := filepath.Join(dir, "data.isbm")
	if err := cmdGenRaw([]string{"-out", raw, "-steps", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-in", raw, "-out", idx, "-bins", "64"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInfo([]string{idx}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-lo", "20", "-hi", "90", idx}); err != nil {
		t.Fatal(err)
	}
	if err := cmdHistogram([]string{idx}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEntropy([]string{idx}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPair([]string{idx, idx}, "mi"); err != nil {
		t.Fatal(err)
	}
	if err := cmdPair([]string{idx, idx}, "emd"); err != nil {
		t.Fatal(err)
	}
	if err := cmdAggregate([]string{"-slo", "0", "-shi", "100", idx}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecFlagConvertAndStat(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "data.israw")
	if err := cmdGenRaw([]string{"-out", raw, "-steps", "3"}); err != nil {
		t.Fatal(err)
	}
	// Build once per codec; every variant must load and answer queries.
	paths := map[string]string{}
	for _, c := range []string{"auto", "wah", "bbc"} {
		idx := filepath.Join(dir, c+".isbm")
		if err := cmdBuild([]string{"-in", raw, "-out", idx, "-bins", "64", "-codec", c}); err != nil {
			t.Fatalf("build -codec %s: %v", c, err)
		}
		if err := cmdStat([]string{idx}); err != nil {
			t.Fatalf("stat on %s index: %v", c, err)
		}
		paths[c] = idx
	}
	// Pinned builds really carry the pinned codec on disk.
	for c, want := range map[string]insitubits.Codec{
		"wah": insitubits.CodecWAH, "bbc": insitubits.CodecBBC,
	} {
		x, err := loadIndex(paths[c])
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < x.Bins(); b++ {
			if got := x.Codec(b); got != want {
				t.Fatalf("%s index bin %d holds %v", c, b, got)
			}
		}
	}
	// convert re-encodes, and -v1 emits the legacy layout that still loads.
	conv := filepath.Join(dir, "conv.isbm")
	if err := cmdConvert([]string{"-in", paths["bbc"], "-out", conv, "-codec", "wah"}); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "legacy.isbm")
	if err := cmdConvert([]string{"-in", paths["auto"], "-out", legacy, "-codec", "wah", "-v1"}); err != nil {
		t.Fatal(err)
	}
	want, err := loadIndex(paths["wah"])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{conv, legacy} {
		x, err := loadIndex(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if x.N() != want.N() || x.Bins() != want.Bins() {
			t.Fatalf("%s: shape changed", p)
		}
		for b := 0; b < x.Bins(); b++ {
			if x.Codec(b) != insitubits.CodecWAH || !x.Bitmap(b).Equal(want.Bitmap(b)) {
				t.Fatalf("%s: bin %d diverged after conversion", p, b)
			}
		}
	}
	// Bad codec names — the retired dense included — error cleanly everywhere.
	for _, c := range []string{"zstd", "dense"} {
		if err := cmdBuild([]string{"-in", raw, "-out", conv, "-codec", c}); err == nil {
			t.Errorf("build accepted codec %q", c)
		}
		if err := cmdConvert([]string{"-in", paths["wah"], "-out", conv, "-codec", c}); err == nil {
			t.Errorf("convert accepted codec %q", c)
		}
	}
	if err := cmdConvert([]string{"-in", "", "-out", ""}); err == nil {
		t.Error("convert accepted missing paths")
	}
	if err := cmdStat([]string{"/nonexistent"}); err == nil {
		t.Error("stat accepted missing file")
	}
}

func TestBuildValidation(t *testing.T) {
	if err := cmdBuild([]string{"-in", "", "-out", ""}); err == nil {
		t.Error("missing flags accepted")
	}
	if err := cmdBuild([]string{"-in", "/nonexistent", "-out", "/tmp/x"}); err == nil {
		t.Error("missing input accepted")
	}
	if err := cmdInfo([]string{"/nonexistent"}); err == nil {
		t.Error("missing index accepted")
	}
	if err := cmdInfo(nil); err == nil {
		t.Error("no args accepted")
	}
}

func TestOceanWorkflow(t *testing.T) {
	dir := t.TempDir()
	ds := filepath.Join(dir, "ocean.isds")
	if err := cmdGenOcean([]string{"-out", ds, "-lon", "32", "-lat", "32", "-depth", "8"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVars([]string{ds}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMine([]string{"-in", ds, "-unit", "256", "-top", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSubgroup([]string{"-in", ds, "-top", "2"}); err != nil {
		t.Fatal(err)
	}
	// Unknown variable errors cleanly.
	if err := cmdMine([]string{"-in", ds, "-a", "nope"}); err == nil {
		t.Error("unknown variable accepted")
	}
	if err := cmdMine([]string{"-in", ""}); err == nil {
		t.Error("missing -in accepted")
	}
	if err := cmdVars([]string{filepath.Join(dir, "missing.isds")}); err == nil {
		t.Error("missing dataset accepted")
	}
}

func TestManifestAndEvolve(t *testing.T) {
	// Produce an archive via the library, then drive the CLI over it.
	dir := t.TempDir()
	if err := runPipelineForTest(dir); err != nil {
		t.Fatal(err)
	}
	if err := cmdManifest([]string{dir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEvolve([]string{dir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEvolve([]string{"-var", "nope", dir}); err == nil {
		t.Error("unknown variable accepted")
	}
	// Corrupt one artifact: manifest validation must fail.
	m, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m {
		if filepath.Ext(e.Name()) == ".isbm" {
			if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if err := cmdManifest([]string{dir}); err == nil {
		t.Error("corrupt archive passed validation")
	}
}

func runPipelineForTest(dir string) error {
	h, err := insitubits.NewHeat3D(10, 10, 10)
	if err != nil {
		return err
	}
	_, err = insitubits.RunPipeline(insitubits.PipelineConfig{
		Sim: h, Steps: 10, Select: 3,
		Method: insitubits.MethodBitmaps, Bins: 48,
		Metric:    insitubits.MetricConditionalEntropy,
		Cores:     1,
		OutputDir: dir,
	})
	return err
}
