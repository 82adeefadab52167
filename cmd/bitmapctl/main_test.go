package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
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

// mi and emd pair elements up through bin ids of at most two bytes: a file
// of more bins is refused with an error, not a panic.
func TestPairRefusesTooManyBins(t *testing.T) {
	dir := t.TempDir()
	raw, idx := filepath.Join(dir, "data.israw"), filepath.Join(dir, "wide.isbm")
	if err := cmdGenRaw([]string{"-out", raw, "-steps", "1"}); err != nil {
		t.Fatal(err)
	}
	// No index of more than 65 536 bins is built ...
	if err := cmdBuild([]string{"-in", raw, "-out", idx, "-bins", "65537"}); err == nil || !strings.Contains(err.Error(), "at most 65536") {
		t.Fatalf("build -bins 65537: %v", err)
	}
	// ... or loaded: a header declaring 65 537 bins is refused before the
	// edges it sizes are read, so the file holds nothing past it.
	header := []byte("ISBM")
	header = binary.LittleEndian.AppendUint32(header, 3)
	header = binary.LittleEndian.AppendUint64(header, 3)
	header = binary.LittleEndian.AppendUint32(header, 65537)
	if err := os.WriteFile(idx, header, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"mi", "emd"} {
		if err := cmdPair([]string{idx, idx}, kind); err == nil || !strings.Contains(err.Error(), "65537 bins, want 1 to 65536") {
			t.Fatalf("%s over a 65537-bin header: %v", kind, err)
		}
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
	// convert re-encodes.
	conv := filepath.Join(dir, "conv.isbm")
	if err := cmdConvert([]string{"-in", paths["bbc"], "-out", conv, "-codec", "wah"}); err != nil {
		t.Fatal(err)
	}
	want, err := loadIndex(paths["wah"])
	if err != nil {
		t.Fatal(err)
	}
	x, err := loadIndex(conv)
	if err != nil {
		t.Fatal(err)
	}
	if x.N() != want.N() || x.Bins() != want.Bins() {
		t.Fatal("shape changed")
	}
	for b := 0; b < x.Bins(); b++ {
		if x.Codec(b) != insitubits.CodecWAH || !x.Bitmap(b).Equal(want.Bitmap(b)) {
			t.Fatalf("bin %d diverged after conversion", b)
		}
	}
	// A legacy v1 file converts to v3 with the same bits.
	v1 := filepath.Join("..", "..", "internal", "store", "testdata", "v1.isbm")
	v3 := filepath.Join(dir, "from-v1.isbm")
	if err := cmdConvert([]string{"-in", v1, "-out", v3, "-codec", "auto"}); err != nil {
		t.Fatal(err)
	}
	old, err := loadIndex(v1)
	if err != nil {
		t.Fatal(err)
	}
	head, err := os.ReadFile(v3)
	if err != nil {
		t.Fatal(err)
	}
	if len(head) < 8 || binary.LittleEndian.Uint32(head[4:8]) != 3 {
		t.Fatalf("convert of a v1 file wrote header % x, want version 3", head[:min(8, len(head))])
	}
	x, err = loadIndex(v3)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < old.Bins(); b++ {
		if !x.Bitmap(b).Equal(old.Bitmap(b)) || x.Count(b) != old.Count(b) {
			t.Fatalf("bin %d diverged converting v1 to v3", b)
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

// `mine -top` prints the strongest findings: none for a negative or zero
// count, all of them for one larger than the finding count, never a panic.
func TestMineTopClamped(t *testing.T) {
	ds := filepath.Join(t.TempDir(), "ocean.isds")
	if err := cmdGenOcean([]string{"-out", ds, "-lon", "32", "-lat", "32", "-depth", "8"}); err != nil {
		t.Fatal(err)
	}
	printed := func(top string) (found, lines int) {
		out := captureStdout(t, func() error { return cmdMine([]string{"-in", ds, "-unit", "256", "-top", top}) })
		if _, err := fmt.Sscanf(out, "%d correlated", &found); err != nil {
			t.Fatalf("-top %s: %v in %q", top, err, out)
		}
		return found, strings.Count(out, "localMI=")
	}
	found, lines := printed("1000000")
	if found == 0 || lines != found {
		t.Fatalf("-top beyond the count printed %d of %d findings", lines, found)
	}
	for _, top := range []string{"-1", "0"} {
		if _, lines := printed(top); lines != 0 {
			t.Fatalf("-top %s printed %d findings", top, lines)
		}
	}
	out := captureStdout(t, func() error { return cmdMine([]string{"-in", ds, "-unit", "256", "-top", "3"}) })
	var mi []float64
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, "localMI="); i >= 0 {
			v, err := strconv.ParseFloat(line[i+len("localMI="):], 64)
			if err != nil {
				t.Fatal(err)
			}
			mi = append(mi, v)
		}
	}
	if len(mi) != min(3, found) || !sort.IsSorted(sort.Reverse(sort.Float64Slice(mi))) {
		t.Fatalf("-top 3 printed local MI %v, want the strongest first", mi)
	}
}

func TestManifestAndEvolve(t *testing.T) {
	// Produce an archive via the library, then drive the CLI over it.
	dir := t.TempDir()
	if err := runPipelineForTest(dir); err != nil {
		t.Fatal(err)
	}
	if err := cmdFsck([]string{dir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEvolve([]string{dir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEvolve([]string{"-var", "nope", dir}); err == nil {
		t.Error("unknown variable accepted")
	}
	// Corrupt one artifact: fsck must fail.
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
	if err := cmdFsck([]string{dir}); err == nil {
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
