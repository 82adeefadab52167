package insitu

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/iosim"
	"insitubits/internal/sim"
	"insitubits/internal/telemetry"
)

// triSim is a tiny deterministic 3-variable workload for the crash suite:
// every field is a pure function of the step counter, so two independent
// instances replay identical runs — the property Resume's re-simulation
// relies on.
type triSim struct {
	t int
	n int
}

func (s *triSim) Name() string         { return "tri" }
func (s *triSim) Vars() []string       { return []string{"alpha", "beta", "gamma"} }
func (s *triSim) Elements() int        { return s.n }
func (s *triSim) Ranges() [][2]float64 { return [][2]float64{{-0.1, 1.1}, {-0.1, 1.1}, {-0.1, 1.1}} }
func (s *triSim) Step(int) []sim.Field {
	t := s.t
	s.t++
	mk := func(phase float64) []float64 {
		d := make([]float64, s.n)
		for i := range d {
			d[i] = 0.5 + 0.5*math.Sin(phase+float64(t)*0.37+float64(i)*0.05)
		}
		return d
	}
	return []sim.Field{
		{Name: "alpha", Data: mk(0)},
		{Name: "beta", Data: mk(1.3)},
		{Name: "gamma", Data: mk(2.6)},
	}
}

// triConfig builds the canonical crash-suite run: 3 variables, 20 steps,
// keep 5, bitmaps with adaptive codecs.
func triConfig(dir string) Config {
	return Config{
		Sim:       &triSim{n: 60},
		Steps:     20,
		Select:    5,
		Method:    Bitmaps,
		Bins:      4,
		Cores:     2,
		OutputDir: dir,
	}
}

// snapshot reads every regular file in dir (quarantine/ excluded — it is
// the designated difference between a crashed-and-resumed directory and a
// clean one).
func snapshot(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

func sameSnapshot(t *testing.T, label string, want, got map[string][]byte) {
	t.Helper()
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: %s missing", label, name)
			continue
		}
		if !bytes.Equal(w, g) {
			t.Errorf("%s: %s differs (%d vs %d bytes)", label, name, len(w), len(g))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: unexpected extra file %s", label, name)
		}
	}
}

// TestCrashMatrixResume is the crash-point suite: record the run's write
// boundaries, kill a fresh run at every boundary (and mid-write between
// boundaries, tearing frames and files), resume it, and require the
// directory to come back byte-identical to an uninterrupted run — then pass
// fsck clean. This is the PR's core acceptance criterion.
func TestCrashMatrixResume(t *testing.T) {
	baseDir := t.TempDir()
	if _, err := Run(triConfig(baseDir)); err != nil {
		t.Fatal(err)
	}
	want := snapshot(t, baseDir)
	if _, ok := want[JournalName]; !ok {
		t.Fatal("baseline run wrote no journal")
	}

	// Recording pass: same run through a fault-free plan yields the kill
	// schedule.
	recPlan := &iosim.FaultPlan{}
	recCfg := triConfig(t.TempDir())
	recCfg.FS = iosim.NewFaultFS(iosim.OS, recPlan)
	if _, err := Run(recCfg); err != nil {
		t.Fatal(err)
	}
	// Expected schedule: 27 journal writes (header + begin + 19 scores +
	// 5 selects + end) and 16 atomic artifact writes (5 steps x 3 vars +
	// manifest) = 43 boundaries.
	bounds := recPlan.WriteBoundaries()
	if len(bounds) < 40 {
		t.Fatalf("recorded only %d write boundaries; the schedule looks wrong", len(bounds))
	}

	// Kill offsets: every boundary (the next write dies with nothing
	// landed) plus every midpoint (a write torn halfway).
	var kills []int64
	prev := int64(0)
	for _, b := range bounds {
		if mid := (prev + b) / 2; mid > prev && mid < b {
			kills = append(kills, mid)
		}
		kills = append(kills, b)
		prev = b
	}
	if testing.Short() {
		thinned := kills[:0]
		for i, k := range kills {
			if i%17 == 0 {
				thinned = append(thinned, k)
			}
		}
		kills = thinned
	}
	total := bounds[len(bounds)-1]

	for _, kill := range kills {
		dir := t.TempDir()
		plan := &iosim.FaultPlan{CrashAtByte: kill}
		cfg := triConfig(dir)
		cfg.FS = iosim.NewFaultFS(iosim.OS, plan)
		_, err := Run(cfg)
		if kill >= total {
			// The kill offset is past the run's last write: no crash.
			if err != nil {
				t.Fatalf("kill@%d: run failed past its final write: %v", kill, err)
			}
		} else if err == nil {
			t.Fatalf("kill@%d: run survived its own crash", kill)
		} else {
			if _, rerr := Resume(dir, triConfig(dir)); rerr != nil {
				t.Fatalf("kill@%d: resume failed: %v", kill, rerr)
			}
		}
		sameSnapshot(t, f("kill@%d", kill), want, snapshot(t, dir))
		rep, err := Fsck(dir, FsckOptions{})
		if err != nil {
			t.Fatalf("kill@%d: fsck errored: %v", kill, err)
		}
		if !rep.Clean() || !rep.Complete {
			t.Fatalf("kill@%d: fsck after resume not clean: %+v", kill, rep.Issues)
		}
	}
}

// A run killed after its last winner's select record — before the manifest
// and the end record — has every selected step durable: the resumed run
// re-reduces the last winner as a run stream, as it must for scoring, but
// encodes no step, and the directory comes out byte-identical.
func TestResumeAfterLastSelectEncodesNothing(t *testing.T) {
	baseDir := t.TempDir()
	if _, err := Run(triConfig(baseDir)); err != nil {
		t.Fatal(err)
	}
	recPlan := &iosim.FaultPlan{}
	recCfg := triConfig(t.TempDir())
	recCfg.FS = iosim.NewFaultFS(iosim.OS, recPlan)
	if _, err := Run(recCfg); err != nil {
		t.Fatal(err)
	}
	bounds := recPlan.WriteBoundaries() // …, last select, manifest, end record
	dir := t.TempDir()
	cfg := triConfig(dir)
	cfg.FS = iosim.NewFaultFS(iosim.OS, &iosim.FaultPlan{CrashAtByte: bounds[len(bounds)-3]})
	if _, err := Run(cfg); err == nil {
		t.Fatal("the run survived its own crash")
	}
	log, err := ReadRunLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Committed()) != cfg.Select || log.End != nil {
		t.Fatalf("killed with %d of %d steps committed (end record %v), want all and no end", len(log.Committed()), cfg.Select, log.End != nil)
	}
	builds := telemetry.Default.Counter("index.builds")
	before := builds.Value()
	cfg = triConfig(dir)
	cfg.Telemetry = telemetry.NewRegistry()
	if _, err := Resume(dir, cfg); err != nil {
		t.Fatal(err)
	}
	status, _ := cfg.Telemetry.StatusValue(RunStatusName)
	phases := status.(RunStatus).Phases
	if got := builds.Value() - before; got != 0 || phases[SpanEncode].Count != 0 || phases[SpanStage].Count == 0 {
		t.Errorf("resumed run built %d indexes in %d encode phases after %d stages, want none of the first two", got, phases[SpanEncode].Count, phases[SpanStage].Count)
	}
	sameSnapshot(t, "killed after the last select", snapshot(t, baseDir), snapshot(t, dir))
}

// f is a tiny fmt.Sprintf alias to keep the matrix loop readable.
func f(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

// TestResumeAfterCancel cancels a run mid-flight via its context, then
// resumes it to completion.
func TestResumeAfterCancel(t *testing.T) {
	baseDir := t.TempDir()
	if _, err := Run(triConfig(baseDir)); err != nil {
		t.Fatal(err)
	}
	want := snapshot(t, baseDir)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first step: maximal rewind
	cfg := triConfig(dir)
	cfg.Ctx = ctx
	if _, err := Run(cfg); err == nil {
		t.Fatal("cancelled run reported success")
	}
	if _, err := Resume(dir, triConfig(dir)); err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, "cancel", want, snapshot(t, dir))
}

// TestResumeCompletedRun re-resumes a finished directory: the journal's end
// record short-circuits any recomputation.
func TestResumeCompletedRun(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(triConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Resume(dir, triConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Selected) != len(res.Selected) {
		t.Fatalf("resumed selection %v, original %v", res2.Selected, res.Selected)
	}
	for i := range res.Selected {
		if res.Selected[i] != res2.Selected[i] {
			t.Fatalf("resumed selection %v, original %v", res2.Selected, res.Selected)
		}
	}
}

// A configuration Run, Resume and Calibrate reject writes nothing. A
// separate-cores split wider than the run's cores, aimed at a completed
// run's directory, leaves it byte-identical and fsck-clean; aimed at a
// crashed run's, it leaves the torn journal tail for a valid Resume to
// quarantine; and a fresh directory gets no journal.
func TestFsckCleanAfterRejectedSplit(t *testing.T) {
	bad := func(dir string) Config {
		cfg := triConfig(dir)
		cfg.Strategy = SeparateCores{SimCores: 2, ReduceCores: 2}
		return cfg
	}
	dir := t.TempDir()
	if _, err := Run(triConfig(dir)); err != nil {
		t.Fatal(err)
	}
	want := snapshot(t, dir)
	if _, err := Run(bad(dir)); err == nil {
		t.Error("Run accepted a 2+2 split of 2 cores")
	}
	if _, err := Resume(dir, bad(dir)); err == nil {
		t.Error("Resume accepted a 2+2 split of 2 cores")
	}
	if _, err := Calibrate(bad(dir)); err == nil {
		t.Error("Calibrate accepted a 2+2 split of 2 cores")
	}
	sameSnapshot(t, "completed run after rejected configs", want, snapshot(t, dir))
	rep, err := Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || !rep.Complete {
		t.Fatalf("fsck after rejected configs: complete %v, issues %+v", rep.Complete, rep.Issues)
	}

	crashed := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cfg := triConfig(crashed)
	cfg.Sim = &cancelSim{triSim: triSim{n: 60}, at: 9, cancel: cancel}
	cfg.Ctx = ctx
	if _, err := Run(cfg); err == nil {
		t.Fatal("the cancelled run completed")
	}
	jf, err := os.OpenFile(filepath.Join(crashed, JournalName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.Write([]byte("torn")); err != nil {
		t.Fatal(err)
	}
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}
	torn := snapshot(t, crashed)
	if _, err := Resume(crashed, bad(crashed)); err == nil {
		t.Error("Resume accepted a 2+2 split of 2 cores")
	}
	sameSnapshot(t, "crashed run after a rejected resume", torn, snapshot(t, crashed))
	if _, err := os.Stat(filepath.Join(crashed, QuarantineDir)); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a rejected resume made %s: %v", QuarantineDir, err)
	}
	if _, err := Resume(crashed, triConfig(crashed)); err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, "crashed run resumed", want, snapshot(t, crashed))

	fresh := t.TempDir()
	if _, err := Run(bad(fresh)); err == nil {
		t.Error("Run accepted a 2+2 split of 2 cores")
	}
	if _, err := os.Stat(filepath.Join(fresh, JournalName)); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a rejected run left a journal: %v", err)
	}
}

// TestResumeRejectsMismatchedConfig guards against splicing two different
// runs into one directory: the config is checked before anything moves, so
// a refused resume of a crashed run leaves its torn journal, its files and
// the absence of quarantine/ as they were.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	dir := t.TempDir()
	cfg := triConfig(dir)
	cfg.FS = iosim.NewFaultFS(iosim.OS, &iosim.FaultPlan{CrashAtByte: 3001})
	if _, err := Run(cfg); err == nil {
		t.Fatal("crashed run reported success")
	}
	if log, err := ReadRunLog(dir); err != nil || len(log.Tail) == 0 {
		t.Fatalf("the crash left no torn journal tail (%v)", err)
	}
	before := snapshot(t, dir)
	other := triConfig(dir)
	other.Steps = 12
	if _, err := Resume(dir, other); err == nil {
		t.Fatal("resume accepted a mismatched config")
	}
	sameSnapshot(t, "crashed run after a refused resume", before, snapshot(t, dir))
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir)); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a refused resume made %s: %v", QuarantineDir, err)
	}
}

// TestResumeCompletedRunVerifiesArtifacts: a completed run's selection is
// returned only when the directory audits clean. A damaged artifact makes
// the call an error naming the file, and nothing moves: repairing a
// completed run is fsck -repair's.
func TestResumeCompletedRunVerifiesArtifacts(t *testing.T) {
	dir := completedRun(t)
	name := artifactNames(t, dir)[4]
	flipByte(t, filepath.Join(dir, name), -10)
	before := snapshot(t, dir)
	_, err := Resume(dir, triConfig(dir))
	if err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("resume of a completed run with %s damaged returned %v, want an error naming it", name, err)
	}
	sameSnapshot(t, "completed run after a refused resume", before, snapshot(t, dir))
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir)); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a refused resume made %s: %v", QuarantineDir, err)
	}
}

// TestResumeRepairsDamagedStep: Resume repairs a crashed run's directory
// the way fsck -repair does — a committed step with one damaged artifact
// goes to quarantine/ whole, and so does a file no select record commits —
// and the replay writes the step again: every artifact and the manifest
// come out as an uninterrupted run's (the journal commits the step twice),
// and fsck is clean.
func TestResumeRepairsDamagedStep(t *testing.T) {
	want := snapshot(t, completedRun(t))
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cfg := triConfig(dir)
	cfg.Sim = &cancelSim{triSim: triSim{n: 60}, at: 13, cancel: cancel}
	cfg.Ctx = ctx
	if _, err := Run(cfg); err == nil {
		t.Fatal("the cancelled run completed")
	}
	log, err := ReadRunLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Committed()) < 2 {
		t.Fatalf("the cancelled run committed %d steps, want at least 2", len(log.Committed()))
	}
	victim := log.Committed()[1]
	flipByte(t, filepath.Join(dir, victim.Files[0].Path), -10)
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(dir, triConfig(dir)); err != nil {
		t.Fatal(err)
	}
	got := snapshot(t, dir)
	delete(want, JournalName)
	delete(got, JournalName)
	sameSnapshot(t, "resumed over a damaged step", want, got)
	for _, jf := range append(victim.Files, JournalFile{Path: "notes.txt"}) {
		if _, err := os.Stat(filepath.Join(dir, QuarantineDir, jf.Path)); err != nil {
			t.Errorf("%s not quarantined: %v", jf.Path, err)
		}
	}
	rep, err := Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || !rep.Complete {
		t.Fatalf("fsck after resume: complete %v, issues %+v", rep.Complete, rep.Issues)
	}
}

// escapingJournal makes parent/run hold a journal with this run's begin
// record and one select record whose file climbs out of the directory to
// parent/outside.bin, a file that exists. It returns the run directory and
// the outside file's path.
func escapingJournal(t *testing.T) (dir, outside string) {
	t.Helper()
	parent := t.TempDir()
	dir, outside = filepath.Join(parent, "run"), filepath.Join(parent, "outside.bin")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outside, bytes.Repeat([]byte{7}, 999), 0o644); err != nil {
		t.Fatal(err)
	}
	buf := journalHeader()
	for _, rec := range []*JournalRecord{
		beginRecord(triConfig(dir)),
		{Kind: KindSelect, Files: []JournalFile{{Var: "alpha", Path: "../outside.bin", Bytes: 999}}},
	} {
		frame, err := encodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, frame...)
	}
	if err := os.WriteFile(filepath.Join(dir, JournalName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, outside
}

// TestResumeRejectsEscapingPath: a select record naming a file outside the
// output directory is no commit — it ends the journal's valid prefix, so
// Resume quarantines it as a torn tail, leaves the outside file alone and
// finishes the run as an uninterrupted one would.
func TestResumeRejectsEscapingPath(t *testing.T) {
	want := snapshot(t, completedRun(t))
	dir, outside := escapingJournal(t)
	if _, err := Resume(dir, triConfig(dir)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(outside); err != nil {
		t.Fatalf("the file outside the run directory moved: %v", err)
	}
	got := snapshot(t, dir)
	if _, ok := got["outside.bin"]; ok {
		t.Fatal("the file outside the run directory was pulled into it")
	}
	sameSnapshot(t, "escaping path", want, got)
}

// TestTransientFaultsRetried proves the retry path absorbs injected
// transient store errors: the run succeeds and its output is identical to
// a fault-free run.
func TestTransientFaultsRetried(t *testing.T) {
	baseDir := t.TempDir()
	if _, err := Run(triConfig(baseDir)); err != nil {
		t.Fatal(err)
	}
	want := snapshot(t, baseDir)

	dir := t.TempDir()
	plan := &iosim.FaultPlan{TransientErrs: 3}
	cfg := triConfig(dir)
	cfg.FS = iosim.NewFaultFS(iosim.OS, plan)
	if _, err := Run(cfg); err != nil {
		t.Fatalf("transient faults were not retried: %v", err)
	}
	sameSnapshot(t, "transient", want, snapshot(t, dir))
}

// TestWorkerPanicBecomesError: a panicking reduction worker must surface as
// an error from Run, not kill the process — and the directory must then be
// resumable.
func TestWorkerPanicBecomesError(t *testing.T) {
	dir := t.TempDir()
	cfg := triConfig(dir)
	cfg.Sim = &panicSim{triSim: triSim{n: 60}, panicAt: 7}
	if _, err := Run(cfg); err == nil {
		t.Fatal("panicking simulator did not fail the run")
	}
	// The journal survived the panic; a healthy simulator resumes the run.
	if _, err := Resume(dir, triConfig(dir)); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || !rep.Complete {
		t.Fatalf("fsck after panic+resume: %+v", rep.Issues)
	}
}

// panicSim panics inside a ParallelFor worker on one step.
type panicSim struct {
	triSim
	panicAt int
}

func (s *panicSim) Step(nWorkers int) []sim.Field {
	if s.t == s.panicAt {
		sim.ParallelFor(4, 2, func(lo, hi int) {
			panic("injected worker panic")
		})
	}
	return s.triSim.Step(nWorkers)
}

// sentinelSim is triSim with one value far outside its range in one step.
type sentinelSim struct {
	triSim
	at int
}

func (s *sentinelSim) Step(nWorkers int) []sim.Field {
	fields := s.triSim.Step(nWorkers)
	if s.t-1 == s.at {
		fields[0].Data[0] = 9
	}
	return fields
}

// cancelSim is triSim that cancels its run as it simulates step at.
type cancelSim struct {
	triSim
	at     int
	cancel context.CancelFunc
}

func (s *cancelSim) Step(nWorkers int) []sim.Field {
	if s.t == s.at {
		s.cancel()
	}
	return s.triSim.Step(nWorkers)
}

// faultyMapper breaks on sentinelSim's value: it panics, which is the stage
// failing (the map), or names a bin one past the last, which the map stores
// without a word and the build — summarize — trips over.
type faultyMapper struct {
	binning.Mapper
	overflow bool
}

func (m faultyMapper) Bin(v float64) int {
	switch {
	case v < 5:
		return m.Mapper.Bin(v)
	case m.overflow:
		return m.Bins()
	default:
		panic("injected map panic")
	}
}

// A panic in either stage of the reduction, on whichever goroutine the
// strategy runs it, surfaces as an error naming the step and one counted
// worker panic.
func TestStageAndSummarizePanicsBecomeErrors(t *testing.T) {
	for _, strategy := range []Strategy{SharedCores{}, SeparateCores{SimCores: 1, ReduceCores: 1}} {
		for _, overflow := range []bool{false, true} {
			cfg := triConfig(t.TempDir())
			cfg.Sim, cfg.Strategy, cfg.Telemetry = &sentinelSim{triSim: triSim{n: 60}, at: 7}, strategy, telemetry.NewRegistry()
			red, err := newReducer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			red.mappers[0] = faultyMapper{red.mappers[0], overflow}
			label := fmt.Sprintf("%s, summarize=%v", strategy.Describe(), overflow)
			if _, err := runReducer(cfg, red); err == nil || !strings.Contains(err.Error(), "panic at step 7") {
				t.Errorf("%s: the run ended with %v, want an error naming step 7", label, err)
			}
			if n := cfg.Telemetry.Counter("insitu.worker_panics").Value(); n != 1 {
				t.Errorf("%s: %d worker panics counted, want 1", label, n)
			}
		}
	}
}

// A resumed run neither stages nor summarizes a step the journal already
// decided: of the steps up to the journal's frontier only the last committed
// winner and the open interval's incumbent are reduced again.
func TestResumeStagesOnlyNeededSteps(t *testing.T) {
	for _, strategy := range []Strategy{SharedCores{}, SeparateCores{SimCores: 1, ReduceCores: 1}} {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		cfg := triConfig(dir)
		cfg.Sim = &cancelSim{triSim: triSim{n: 60}, at: 13, cancel: cancel}
		cfg.Strategy, cfg.Ctx = strategy, ctx
		if _, err := Run(cfg); err == nil {
			t.Fatalf("%s: the cancelled run completed", strategy.Describe())
		}
		cancel()
		data, err := os.ReadFile(filepath.Join(dir, JournalName))
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := ParseJournal(data)
		if err != nil {
			t.Fatal(err)
		}
		frontier := -1
		for _, rec := range recs {
			if (rec.Kind == KindScore || rec.Kind == KindSelect) && rec.Step > frontier {
				frontier = rec.Step
			}
		}
		cfg = triConfig(dir)
		cfg.Strategy, cfg.Telemetry = strategy, telemetry.NewRegistry()
		if _, err := Resume(dir, cfg); err != nil {
			t.Fatal(err)
		}
		fresh := int64(cfg.Steps - 1 - frontier)
		status, _ := cfg.Telemetry.StatusValue(RunStatusName)
		staged := status.(RunStatus).Phases[SpanStage].Count
		if frontier < 8 || staged < fresh+1 || staged > fresh+2 {
			t.Errorf("%s: journal frontier %d of %d steps, the resumed run staged %d; want the %d steps past the frontier and one or two needed before it",
				strategy.Describe(), frontier, cfg.Steps, staged, fresh)
		}
		want := t.TempDir()
		whole := triConfig(want)
		whole.Strategy = strategy
		if _, err := Run(whole); err != nil {
			t.Fatal(err)
		}
		sameSnapshot(t, strategy.Describe()+": resumed vs uninterrupted", snapshot(t, want), snapshot(t, dir))
	}
}
