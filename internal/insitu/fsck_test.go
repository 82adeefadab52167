package insitu

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"insitubits/internal/iosim"
)

// completedRun executes the canonical crash-suite workload into a fresh
// directory and returns it.
func completedRun(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := Run(triConfig(dir)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// artifactNames returns the run's data files (sorted order not needed).
func artifactNames(t *testing.T, dir string) []string {
	t.Helper()
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(m.Files))
	for _, f := range m.Files {
		names = append(names, f.Path)
	}
	return names
}

func TestFsckCleanDir(t *testing.T) {
	dir := completedRun(t)
	rep, err := Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || !rep.Complete {
		t.Fatalf("clean completed run reported %+v", rep)
	}
	if rep.FilesChecked != 15 { // 5 selected steps x 3 variables
		t.Fatalf("checked %d files, want 15", rep.FilesChecked)
	}
}

// TestFsckDetectsCorruptionTable applies one mutation per case to a fresh
// completed run; fsck must flag every one with the right damage class.
func TestFsckDetectsCorruptionTable(t *testing.T) {
	cases := map[string]struct {
		mutate func(t *testing.T, dir string)
		class  string
	}{
		"flipped artifact byte": {func(t *testing.T, dir string) {
			name := artifactNames(t, dir)[0]
			flipByte(t, filepath.Join(dir, name), -10)
		}, DamageCorrupt},
		"truncated artifact": {func(t *testing.T, dir string) {
			name := artifactNames(t, dir)[1]
			path := filepath.Join(dir, name)
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, st.Size()-5); err != nil {
				t.Fatal(err)
			}
		}, DamageTruncated},
		"deleted artifact": {func(t *testing.T, dir string) {
			name := artifactNames(t, dir)[2]
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}, DamageMissing},
		"torn journal tail": {func(t *testing.T, dir string) {
			f, err := os.OpenFile(filepath.Join(dir, JournalName), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{9, 0, 0, 0, 'x'}); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}, DamageTruncated},
		"journal without begin record": {func(t *testing.T, dir string) {
			path := filepath.Join(dir, JournalName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			end := journalHeaderLen + 4 + int(binary.LittleEndian.Uint32(data[journalHeaderLen:])) + 4
			if err := os.WriteFile(path, append(data[:journalHeaderLen:journalHeaderLen], data[end:]...), 0o644); err != nil {
				t.Fatal(err)
			}
		}, DamageCorrupt},
		"flipped journal header": {func(t *testing.T, dir string) {
			flipByte(t, filepath.Join(dir, JournalName), 0)
		}, DamageCorrupt},
		"deleted manifest": {func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
				t.Fatal(err)
			}
		}, DamageMissing},
		"stray staging file": {func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, "step0003_beta.isbm.tmp"), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, DamageOrphan},
		"unreferenced file": {func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, DamageOrphan},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			dir := completedRun(t)
			tc.mutate(t, dir)
			rep, err := Fsck(dir, FsckOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Clean() {
				t.Fatalf("mutation went undetected")
			}
			found := false
			for _, is := range rep.Issues {
				if is.Class == tc.class {
					found = true
				}
			}
			if !found {
				t.Fatalf("no %s issue in %+v", tc.class, rep.Issues)
			}
		})
	}
}

// TestFsckIssueOrderStable damages two committed steps: fsck reports them
// in ascending step order, and the same issues on every pass.
func TestFsckIssueOrderStable(t *testing.T) {
	dir := completedRun(t)
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, last := m.Files[0], m.Files[len(m.Files)-1]
	flipByte(t, filepath.Join(dir, last.Path), -10)
	flipByte(t, filepath.Join(dir, first.Path), -10)
	var want []FsckIssue
	for i := 0; i < 10; i++ {
		rep, err := Fsck(dir, FsckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = rep.Issues
			if len(want) != 2 || want[0].Path != first.Path || want[1].Path != last.Path {
				t.Fatalf("issues %+v, want %s then %s", want, first.Path, last.Path)
			}
		}
		if !reflect.DeepEqual(rep.Issues, want) {
			t.Fatalf("pass %d reported %+v, pass 0 %+v", i, rep.Issues, want)
		}
	}
}

// flipByte XORs one byte of a file; negative offsets count from the end.
func flipByte(t *testing.T, path string, off int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += len(data)
	}
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFsckRepair corrupts one artifact of a completed run, repairs, and
// requires: report marked repaired, the damaged step quarantined whole (all
// three variables), manifest and journal rewritten consistent, and a second
// fsck pass coming back clean.
func TestFsckRepair(t *testing.T) {
	dir := completedRun(t)
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := m.Files[0]
	flipByte(t, filepath.Join(dir, victim.Path), -10)

	rep, err := Fsck(dir, FsckOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired {
		t.Fatalf("repair did not run: %+v", rep)
	}
	// The whole step moved to quarantine, not just the damaged file.
	for _, f := range m.Files {
		if f.Step != victim.Step {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, QuarantineDir, f.Path)); err != nil {
			t.Errorf("%s not quarantined: %v", f.Path, err)
		}
		if _, err := os.Stat(filepath.Join(dir, f.Path)); err == nil {
			t.Errorf("%s still present after repair", f.Path)
		}
	}
	m2, err := ReadManifest(dir)
	if err != nil {
		t.Fatalf("repaired manifest does not read: %v", err)
	}
	if len(m2.Selected) != len(m.Selected)-1 {
		t.Fatalf("repaired manifest keeps %d steps, want %d", len(m2.Selected), len(m.Selected)-1)
	}
	for _, s := range m2.Selected {
		if s == victim.Step {
			t.Fatalf("damaged step %d survived in the manifest", s)
		}
	}
	rep2, err := Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() || !rep2.Complete {
		t.Fatalf("fsck after repair not clean: %+v", rep2.Issues)
	}
}

// TestFsckRepairIsIdempotent: files no select record commits are orphans
// even when the manifest lists them, so one repair quarantines them and puts
// back the journal's rendering of the manifest, and a second fsck is clean.
func TestFsckRepairIsIdempotent(t *testing.T) {
	dir := completedRun(t)
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshot(t, dir)
	m.Selected = append(m.Selected, 99)
	for _, v := range m.Vars {
		name := "step0099_" + v + ".isbm"
		body := []byte("no select record commits " + name)
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
		m.Files = append(m.Files, ManifestFile{Step: 99, Var: v, Path: name, Bytes: int64(len(body))})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(dir, FsckOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired || len(rep.Issues) != 4 {
		t.Fatalf("first repair: repaired %v, issues %+v; want the manifest and three orphans", rep.Repaired, rep.Issues)
	}
	rep, err = Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || !rep.Complete {
		t.Fatalf("fsck after one repair: complete %v, issues %+v", rep.Complete, rep.Issues)
	}
	got := snapshot(t, dir)
	if !bytes.Equal(got[ManifestName], want[ManifestName]) {
		t.Errorf("repaired manifest differs from the run's")
	}
	for _, v := range m.Vars {
		if _, ok := got["step0099_"+v+".isbm"]; ok {
			t.Errorf("step0099_%s.isbm still in the directory", v)
		}
	}
}

// TestFsckRepairIncompleteLeavesResumable: repairing a crashed (incomplete)
// run quarantines damage but must not fabricate a manifest — the directory
// stays resumable, and Resume then finishes it.
func TestFsckRepairIncompleteLeavesResumable(t *testing.T) {
	base := completedRun(t)
	want := snapshot(t, base)

	dir := t.TempDir()
	cfg := triConfig(dir)
	cfg.FS = iosim.NewFaultFS(iosim.OS, &iosim.FaultPlan{CrashAtByte: 3000})
	if _, err := Run(cfg); err == nil {
		t.Fatal("crashed run reported success")
	}
	rep, err := Fsck(dir, FsckOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Fatal("crashed run reported complete")
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		t.Fatal("repair fabricated a manifest for an incomplete run")
	}
	if _, err := Resume(dir, triConfig(dir)); err != nil {
		t.Fatal(err)
	}
	got := snapshot(t, dir)
	// Repair may have already quarantined what Resume would have; the final
	// visible directory must still match the uninterrupted run.
	sameSnapshot(t, "repair+resume", want, got)
}

// TestFsckPreJournalDir: the journal is the only record of what a run
// committed, so a directory with only a manifest is missing its journal and
// is not complete. Its manifest still names its files, so they are not
// orphans, and -repair moves none of them.
func TestFsckPreJournalDir(t *testing.T) {
	dir := completedRun(t)
	if err := os.Remove(filepath.Join(dir, JournalName)); err != nil {
		t.Fatal(err)
	}
	before := snapshot(t, dir)
	rep, err := Fsck(dir, FsckOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete || rep.Repaired || len(rep.Issues) != 1 {
		t.Fatalf("pre-journal dir reported %+v with issues %+v", rep, rep.Issues)
	}
	if is := rep.Issues[0]; is.Path != JournalName || is.Class != DamageMissing {
		t.Fatalf("pre-journal dir issue %+v, want %s %s", is, JournalName, DamageMissing)
	}
	sameSnapshot(t, "repaired pre-journal dir", before, snapshot(t, dir))
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir)); err == nil {
		t.Fatal("repair quarantined files of a directory without a journal")
	}
}

// TestFsckRejectsEscapingPath: fsck -repair of a journal whose select
// record names a file outside the directory reports the record as a torn
// tail and leaves the outside file where it is.
func TestFsckRejectsEscapingPath(t *testing.T) {
	dir, outside := escapingJournal(t)
	rep, err := Fsck(dir, FsckOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(outside); err != nil {
		t.Fatalf("the file outside the run directory moved: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "outside.bin")); err == nil {
		t.Fatal("the file outside the run directory was pulled into it")
	}
	if rep.Clean() || rep.FilesChecked != 0 {
		t.Fatalf("escaping select record verified: %+v", rep)
	}
}
