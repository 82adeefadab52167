package insitu

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"insitubits/internal/codec"
	"insitubits/internal/selection"
	"insitubits/internal/sim/heat3d"
	"insitubits/internal/sim/lulesh"
	"insitubits/internal/store"
)

// TestPipelineCodecReachesDisk pins a codec in the config and checks the
// persisted index files carry it bin by bin.
func TestPipelineCodecReachesDisk(t *testing.T) {
	for _, id := range []codec.ID{codec.WAH, codec.BBC} {
		dir := t.TempDir()
		h, err := heat3d.New(10, 10, 10)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(Config{
			Sim: h, Steps: 8, Select: 2,
			Method: Bitmaps, Bins: 32, Codec: id,
			Metric:    selection.ConditionalEntropy,
			Cores:     2,
			OutputDir: dir,
		})
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		m, err := ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, mf := range m.Files {
			f, err := os.Open(filepath.Join(dir, mf.Path))
			if err != nil {
				t.Fatal(err)
			}
			x, err := store.ReadIndex(f)
			f.Close()
			if err != nil {
				t.Fatalf("%v: %s: %v", id, mf.Path, err)
			}
			for b := 0; b < x.Bins(); b++ {
				if got := x.Codec(b); got != id {
					t.Fatalf("%v: %s bin %d stored as %v", id, mf.Path, b, got)
				}
			}
		}
	}
}

func TestOutputDirPersistsSelectedBitmaps(t *testing.T) {
	dir := t.TempDir()
	h, err := heat3d.New(12, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Sim: h, Steps: 16, Select: 4,
		Method: Bitmaps, Bins: 64,
		Metric:    selection.ConditionalEntropy,
		Cores:     2,
		OutputDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Workload != "heat3d" || m.Method != "bitmaps" || m.Steps != 16 {
		t.Fatalf("manifest header %+v", m)
	}
	if len(m.Selected) != len(res.Selected) {
		t.Fatalf("manifest selections %v vs %v", m.Selected, res.Selected)
	}
	for i := range m.Selected {
		if m.Selected[i] != res.Selected[i] {
			t.Fatalf("manifest selections %v vs %v", m.Selected, res.Selected)
		}
	}
	if len(m.Files) != len(res.Selected) { // one variable
		t.Fatalf("%d files for %d selections", len(m.Files), len(res.Selected))
	}
	// Every listed file exists, parses, and its size matches the manifest.
	for _, mf := range m.Files {
		path := filepath.Join(dir, mf.Path)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != mf.Bytes {
			t.Fatalf("%s: %d bytes on disk, manifest says %d", mf.Path, info.Size(), mf.Bytes)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		x, err := store.ReadIndex(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", mf.Path, err)
		}
		if x.N() != h.Elements() {
			t.Fatalf("%s: covers %d elements", mf.Path, x.N())
		}
	}
}

func TestOutputDirFullDataAndSampling(t *testing.T) {
	for _, method := range []Method{FullData, Sampling} {
		dir := t.TempDir()
		h, err := heat3d.New(8, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(Config{
			Sim: h, Steps: 8, Select: 2,
			Method: method, Bins: 32, SamplePct: 20, Seed: 1,
			Metric:    selection.EMDCount,
			Cores:     1,
			OutputDir: dir,
		})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		m, err := ReadManifest(dir)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		for _, mf := range m.Files {
			f, err := os.Open(filepath.Join(dir, mf.Path))
			if err != nil {
				t.Fatal(err)
			}
			data, err := store.ReadRaw(f)
			f.Close()
			if err != nil {
				t.Fatalf("%v %s: %v", method, mf.Path, err)
			}
			if len(data) == 0 {
				t.Fatalf("%v %s: empty array", method, mf.Path)
			}
			if method == Sampling && len(data) >= h.Elements() {
				t.Fatalf("sampling persisted %d of %d elements", len(data), h.Elements())
			}
		}
	}
}

func TestOutputDirMultiVariableNames(t *testing.T) {
	dir := t.TempDir()
	l := newTestLulesh(t)
	_, err := Run(Config{
		Sim: l, Steps: 6, Select: 2,
		Method: Bitmaps, Bins: 32,
		Metric:    selection.EMDCount,
		Cores:     1,
		OutputDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Vars) != 12 || len(m.Files) != 2*12 {
		t.Fatalf("%d vars, %d files", len(m.Vars), len(m.Files))
	}
	// Variable names with dots must be sanitized in file names.
	for _, mf := range m.Files {
		if filepath.Ext(mf.Path) != ".isbm" {
			t.Fatalf("unexpected extension in %s", mf.Path)
		}
		base := mf.Path[:len(mf.Path)-5]
		for _, r := range base {
			ok := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_'
			if !ok {
				t.Fatalf("unsanitized character %q in %s", r, mf.Path)
			}
		}
	}
}

func TestReadManifestValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadManifest(dir); err == nil {
		t.Error("missing manifest accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil {
		t.Error("malformed manifest accepted")
	}
	// Inconsistent file count.
	if err := os.WriteFile(filepath.Join(dir, ManifestName),
		[]byte(`{"vars":["a"],"selected":[0,1],"files":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil {
		t.Error("inconsistent manifest accepted")
	}
}

func TestOutputDirCreationFailure(t *testing.T) {
	// A path under an existing *file* cannot be created.
	base := t.TempDir()
	blocker := filepath.Join(base, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := heat3d.New(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{
		Sim: h, Steps: 4, Select: 2,
		Method: Bitmaps, Bins: 16,
		Metric:    selection.EMDCount,
		Cores:     1,
		OutputDir: filepath.Join(blocker, "sub"),
	})
	if err == nil {
		t.Fatal("unusable output dir accepted")
	}
}

// TestRunOutputIdenticalAcrossCores: the worker count decides who builds,
// encodes and scores what, never what is stored. The benchmark's two in-situ
// shapes, small — heat3d (one array, conditional entropy, shared cores: the
// build, the encode and the score all split inside the variable) and lulesh
// (twelve arrays, spatial EMD, separate cores: they split across variables)
// — must write a byte-equal manifest, journal and .isbm set at every core
// count, and again over a simulator that poisons whatever it lent once it
// steps on (lend_test.go): with more workers reading a lent step, none may
// read it late — nor, under separate cores, may the queue's capacity (how far
// the simulator runs ahead of the build) show in a single byte.
func TestRunOutputIdenticalAcrossCores(t *testing.T) {
	heat := func(cores int, dir string) Config {
		h, err := heat3d.New(14, 14, 14)
		if err != nil {
			t.Fatal(err)
		}
		return Config{Sim: h, Steps: 10, Select: 4, Method: Bitmaps, Bins: 48,
			Metric: selection.ConditionalEntropy, Cores: cores, OutputDir: dir}
	}
	lul := func(cores int, dir string) Config {
		l, err := lulesh.New(8, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		return Config{Sim: l, Steps: 10, Select: 4, Method: Bitmaps, Bins: 24,
			Metric: selection.EMDSpatial, Cores: cores + 1, OutputDir: dir,
			Strategy: SeparateCores{SimCores: 1, ReduceCores: cores}}
	}
	for name, config := range map[string]func(int, string) Config{"heat3d": heat, "lulesh": lul} {
		var want map[string][]byte
		for _, cores := range []int{1, 2, 4} {
			dir := t.TempDir()
			if _, err := Run(config(cores, dir)); err != nil {
				t.Fatalf("%s cores=%d: %v", name, cores, err)
			}
			got := snapshot(t, dir)
			if want == nil {
				want = got
				if len(want) < 2+4 { // manifest, journal, one .isbm per kept step and variable
					t.Fatalf("%s: run wrote only %d files", name, len(want))
				}
				continue
			}
			sameSnapshot(t, fmt.Sprintf("%s cores=%d vs cores=1", name, cores), want, got)
		}
		for _, cores := range []int{1, 2, 4} {
			got, _ := runPoisoned(t, config(cores, ""))
			sameSnapshot(t, fmt.Sprintf("%s cores=%d over a poisoning simulator vs cores=1", name, cores), want, got)
		}
		for _, qcap := range []int{1, 4} {
			cfg := config(2, "")
			if split, ok := cfg.Strategy.(SeparateCores); ok {
				split.QueueCap = qcap
				cfg.Strategy = split
				got, _ := runPoisoned(t, cfg)
				sameSnapshot(t, fmt.Sprintf("%s queue cap %d over a poisoning simulator vs cores=1", name, qcap), want, got)
			}
		}
	}
}

// The begin record is the fingerprint Resume matches a directory against:
// its bytes for a bitmaps run are pinned, so a Config field added, dropped
// or renamed cannot change the journal a resumed run must agree with
// unnoticed.
func TestBeginRecordGolden(t *testing.T) {
	cfg := triConfig(t.TempDir())
	cfg.Metric, cfg.Codec, cfg.Seed = selection.EMDSpatial, codec.BBC, 7
	cfg.Strategy, cfg.Cores = SeparateCores{SimCores: 1, ReduceCores: 1}, 2
	got, err := json.Marshal(beginRecord(cfg))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"kind":"begin","workload":"tri","method":"bitmaps","vars":["alpha","beta","gamma"],` +
		`"steps":20,"select":5,"bins":4,"codec":"bbc","metric":"emd-spatial","seed":7}`
	if string(got) != want {
		t.Fatalf("begin record\n got %s\nwant %s", got, want)
	}
}
