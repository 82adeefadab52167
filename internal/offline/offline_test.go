package offline

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"insitubits/internal/index"
	"insitubits/internal/insitu"
	"insitubits/internal/iosim"
	"insitubits/internal/selection"
	"insitubits/internal/sim/heat3d"
	"insitubits/internal/store"
)

// pipelineConfig is the tests' run: heat3d 12³, 18 steps, keep 6.
func pipelineConfig(t *testing.T, method insitu.Method, dir string) insitu.Config {
	t.Helper()
	h, err := heat3d.New(12, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	return insitu.Config{
		Sim: h, Steps: 18, Select: 6,
		Method: method, Bins: 64, SamplePct: 25, Seed: 1,
		Metric:    selection.ConditionalEntropy,
		Cores:     2,
		OutputDir: dir,
	}
}

// runPipeline produces a persisted archive for the tests.
func runPipeline(t *testing.T, method insitu.Method, dir string) *insitu.Result {
	t.Helper()
	res, err := insitu.Run(pipelineConfig(t, method, dir))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLoadBitmapArchive(t *testing.T) {
	dir := t.TempDir()
	res := runPipeline(t, insitu.Bitmaps, dir)
	a, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsBitmaps() {
		t.Fatal("bitmap archive not recognized")
	}
	if len(a.Steps()) != len(res.Selected) {
		t.Fatalf("archive has %d steps, pipeline selected %d", len(a.Steps()), len(res.Selected))
	}
	for i, s := range a.Steps() {
		if s != res.Selected[i] {
			t.Fatalf("archive steps %v vs selected %v", a.Steps(), res.Selected)
		}
		x, err := a.Index(s, "temperature")
		if err != nil {
			t.Fatal(err)
		}
		if x.N() != 12*12*12 {
			t.Fatalf("step %d covers %d elements", s, x.N())
		}
	}
	if _, err := a.Index(9999, "temperature"); err == nil {
		t.Error("missing step accepted")
	}
	if _, err := a.Index(a.Steps()[0], "nope"); err == nil {
		t.Error("missing variable accepted")
	}
	if _, err := a.Raw(a.Steps()[0], "temperature"); err == nil {
		t.Error("Raw on a bitmap archive accepted")
	}
}

func TestLoadRawArchive(t *testing.T) {
	dir := t.TempDir()
	runPipeline(t, insitu.Sampling, dir)
	a, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a.IsBitmaps() {
		t.Fatal("sampling archive misclassified")
	}
	data, err := a.Raw(a.Steps()[0], "temperature")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || len(data) >= 12*12*12 {
		t.Fatalf("sample has %d elements", len(data))
	}
	if _, err := a.PairwiseMetrics("temperature"); err == nil {
		t.Error("pairwise metrics on raw archive accepted")
	}
	if _, err := a.Reselect("temperature", 2, selection.EMDCount); err == nil {
		t.Error("reselect on raw archive accepted")
	}
	if _, err := a.Evolve("temperature"); err == nil {
		t.Error("evolve on raw archive accepted")
	}
}

func TestPairwiseMetricsShape(t *testing.T) {
	dir := t.TempDir()
	runPipeline(t, insitu.Bitmaps, dir)
	a, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := a.PairwiseMetrics("temperature")
	if err != nil {
		t.Fatal(err)
	}
	n := len(a.Steps())
	if len(m) != n {
		t.Fatalf("%d rows", len(m))
	}
	for i := range m {
		if len(m[i]) != n {
			t.Fatalf("row %d has %d cells", i, len(m[i]))
		}
		if m[i][i].MI != 0 || m[i][i].EntropyA != 0 {
			t.Fatalf("diagonal not zero-valued: %+v", m[i][i])
		}
		for j := range m[i] {
			if i == j {
				continue
			}
			// MI is symmetric; conditional entropies swap.
			if math.Abs(m[i][j].MI-m[j][i].MI) > 1e-9 {
				t.Fatalf("MI not symmetric at (%d,%d)", i, j)
			}
			if math.Abs(m[i][j].CondEntropyAB-m[j][i].CondEntropyBA) > 1e-9 {
				t.Fatalf("conditional entropies inconsistent at (%d,%d)", i, j)
			}
		}
	}
}

func TestReselect(t *testing.T) {
	dir := t.TempDir()
	runPipeline(t, insitu.Bitmaps, dir)
	a, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	picked, err := a.Reselect("temperature", 3, selection.ConditionalEntropy)
	if err != nil {
		t.Fatal(err)
	}
	if len(picked) != 3 {
		t.Fatalf("picked %v", picked)
	}
	// Picks must be archived steps, ascending.
	archived := map[int]bool{}
	for _, s := range a.Steps() {
		archived[s] = true
	}
	for i, s := range picked {
		if !archived[s] {
			t.Fatalf("picked unarchived step %d", s)
		}
		if i > 0 && s <= picked[i-1] {
			t.Fatalf("picks not ascending: %v", picked)
		}
	}
	if _, err := a.Reselect("temperature", 99, selection.EMDCount); err == nil {
		t.Error("k beyond archive size accepted")
	}
}

func TestEvolve(t *testing.T) {
	dir := t.TempDir()
	runPipeline(t, insitu.Bitmaps, dir)
	a, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := a.Evolve("temperature")
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != len(a.Steps()) {
		t.Fatalf("%d evolution points", len(ev))
	}
	if ev[0].CondEntropy != 0 || ev[0].EMD != 0 {
		t.Fatalf("first point has previous-step metrics: %+v", ev[0])
	}
	for i, e := range ev {
		if e.Entropy <= 0 {
			t.Fatalf("point %d entropy %g", i, e.Entropy)
		}
		if i > 0 && e.EMD < 0 {
			t.Fatalf("point %d negative EMD", i)
		}
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestLoadRejectsCorruptArtifact(t *testing.T) {
	dir := t.TempDir()
	runPipeline(t, insitu.Bitmaps, dir)
	// Corrupt the first artifact listed in the manifest.
	m, err := insitu.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, m.Files[0].Path)
	if err := os.WriteFile(victim, []byte("not a bitmap index"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(dir)
	if err == nil {
		t.Fatal("corrupt artifact accepted")
	}
	if !strings.Contains(err.Error(), m.Files[0].Path) {
		t.Fatalf("error %q does not name the corrupt file", err)
	}
}

func TestLoadRejectsMissingArtifact(t *testing.T) {
	dir := t.TempDir()
	runPipeline(t, insitu.Bitmaps, dir)
	m, err := insitu.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, m.Files[1].Path)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("missing artifact accepted")
	}
}

// TestLoadMatchesManifest: on a completed run, the steps and variables the
// journal commits are the ones the manifest lists.
func TestLoadMatchesManifest(t *testing.T) {
	dir := t.TempDir()
	runPipeline(t, insitu.Bitmaps, dir)
	a, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := insitu.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Steps(), m.Selected) || !slices.Equal(a.Vars(), m.Vars) {
		t.Fatalf("archive steps %v vars %v, manifest %v %v", a.Steps(), a.Vars(), m.Selected, m.Vars)
	}
}

// TestLoadReadsCommittedPrefix kills a run mid-way: the directory has no
// manifest, and Load returns exactly the steps its journal commits, each
// index equal to the one an uninterrupted run wrote for that step.
func TestLoadReadsCommittedPrefix(t *testing.T) {
	full := t.TempDir()
	runPipeline(t, insitu.Bitmaps, full)
	want, err := Load(full)
	if err != nil {
		t.Fatal(err)
	}
	rec := &iosim.FaultPlan{}
	cfg := pipelineConfig(t, insitu.Bitmaps, t.TempDir())
	cfg.FS = iosim.NewFaultFS(iosim.OS, rec)
	if _, err := insitu.Run(cfg); err != nil {
		t.Fatal(err)
	}
	bounds := rec.WriteBoundaries()

	dir := t.TempDir()
	cfg = pipelineConfig(t, insitu.Bitmaps, dir)
	cfg.FS = iosim.NewFaultFS(iosim.OS, &iosim.FaultPlan{CrashAtByte: bounds[len(bounds)/2]})
	if _, err := insitu.Run(cfg); err == nil {
		t.Fatal("run survived its crash")
	}
	if _, err := os.Stat(filepath.Join(dir, insitu.ManifestName)); err == nil {
		t.Fatal("a crashed run wrote its manifest")
	}
	committed := journalCommits(t, dir)
	if len(committed) == 0 || len(committed) >= len(want.Steps()) {
		t.Fatalf("the crash left %v committed of %v; pick another kill point", committed, want.Steps())
	}
	a, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Steps(), committed) {
		t.Fatalf("archive steps %v, journal commits %v", a.Steps(), committed)
	}
	for _, s := range committed {
		got, err := a.Index(s, "temperature")
		if err != nil {
			t.Fatal(err)
		}
		ref, err := want.Index(s, "temperature")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(indexBytes(t, got), indexBytes(t, ref)) {
			t.Fatalf("step %d: the crashed run's index differs from the completed run's", s)
		}
	}
}

// TestLoadRejectsEscapingPath: a journal whose only select record names a
// file outside the run directory commits nothing, so Load fails and never
// reads the outside file — even though a manifest lists it.
func TestLoadRejectsEscapingPath(t *testing.T) {
	parent := t.TempDir()
	src := filepath.Join(parent, "src")
	runPipeline(t, insitu.Bitmaps, src)
	m, err := insitu.ReadManifest(src)
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := os.ReadFile(filepath.Join(src, m.Files[0].Path))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(parent, "outside.isbm"), artifact, 0o644); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(src, insitu.JournalName))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := insitu.ParseJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	const escaping = "../outside.isbm"
	jf := insitu.JournalFile{Var: "temperature", Path: escaping, Bytes: int64(len(artifact)), CRC: store.CRC32C(artifact)}
	buf := journal[:8:8] // the header
	for _, rec := range []*insitu.JournalRecord{&recs[0], {Kind: insitu.KindSelect, Step: 1, Files: []insitu.JournalFile{jf}}} {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.LittleEndian.AppendUint32(append(buf, payload...), store.CRC32C(payload))
	}
	dir := filepath.Join(parent, "run")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, insitu.JournalName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	m.Selected, m.Files = []int{1}, []insitu.ManifestFile{{Step: 1, Var: "temperature", Path: escaping, Bytes: jf.Bytes}}
	manifest, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, insitu.ManifestName), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	if a, err := Load(dir); err == nil {
		t.Fatalf("loaded %v from a journal that commits no step inside the directory", a.Steps())
	}
}

// journalCommits lists the steps dir's journal holds select records for,
// ascending.
func journalCommits(t *testing.T, dir string) []int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, insitu.JournalName))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := insitu.ParseJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	var steps []int
	for _, rec := range recs {
		if rec.Kind == insitu.KindSelect && !slices.Contains(steps, rec.Step) {
			steps = append(steps, rec.Step)
		}
	}
	slices.Sort(steps)
	return steps
}

// indexBytes is an index's stored form.
func indexBytes(t *testing.T, x *index.Index) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := store.WriteIndex(&b, x); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
