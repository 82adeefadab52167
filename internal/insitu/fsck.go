package insitu

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"insitubits/internal/store"
)

// Damage classes Fsck assigns to issues. "missing" is the journal, or a
// file the journal references, that is not on disk; "truncated" is a file
// (or journal tail) cut short, the signature of a crash; "corrupt" is
// content that fails its checksum or parses invalid — flipped bytes, not a
// crash; "orphan" is a file nothing references (stray staging files
// included); "incomplete" is a journal without an end record — the run
// never finished and can be resumed.
const (
	DamageMissing    = "missing"
	DamageTruncated  = "truncated"
	DamageCorrupt    = "corrupt"
	DamageOrphan     = "orphan"
	DamageIncomplete = "incomplete"
)

// FsckIssue is one problem fsck found (and possibly repaired).
type FsckIssue struct {
	Path   string `json:"path"`
	Step   int    `json:"step"` // -1 when not tied to a step
	Class  string `json:"class"`
	Detail string `json:"detail"`
	// Action is what -repair did about it ("" when not repairing).
	Action string `json:"action,omitempty"`
}

// FsckReport summarizes one directory verification.
type FsckReport struct {
	Dir string `json:"dir"`
	// Begin is the journal's begin record (the run's workload, method,
	// variables and step count); nil when the journal has none.
	Begin *JournalRecord `json:"begin,omitempty"`
	// Committed lists the steps the journal commits, ascending.
	Committed []int `json:"committed,omitempty"`
	// FilesChecked counts artifacts verified against their journaled
	// length and CRC32C, not counting the journal and manifest themselves;
	// BytesChecked is their journaled total.
	FilesChecked int   `json:"files_checked"`
	BytesChecked int64 `json:"bytes_checked"`
	// Complete is true when the journal records a finished run: it has an
	// end record.
	Complete bool        `json:"complete"`
	Issues   []FsckIssue `json:"issues,omitempty"`
	Repaired bool        `json:"repaired,omitempty"`
}

// Clean reports whether no issues were found.
func (r *FsckReport) Clean() bool { return len(r.Issues) == 0 }

// FsckOptions configures Fsck.
type FsckOptions struct {
	// Repair quarantines damaged steps and strays and, for a completed run,
	// rewrites a consistent manifest and journal covering only the
	// surviving steps. Nothing is deleted — everything moves to
	// quarantine/. A directory whose journal is missing or corrupt is left
	// as it is.
	Repair bool
}

// Fsck verifies an output directory end to end against its journal, the
// only record of what the run committed: the journal's integrity (header,
// frame checksums, torn tail, a begin record first), every committed
// artifact's length and whole-file CRC32C, the manifest against the select
// records, and files nothing references. A directory without a journal is
// reported as missing it. Damage is classified per FsckIssue; the error
// return is reserved for fsck itself failing, not for problems it found.
func Fsck(dir string, opt FsckOptions) (*FsckReport, error) {
	rep := &FsckReport{Dir: dir}
	issue := func(path string, step int, class, detail string) {
		rep.Issues = append(rep.Issues, FsckIssue{Path: path, Step: step, Class: class, Detail: detail})
	}
	log, err := ReadRunLog(dir)
	if err != nil {
		return nil, fmt.Errorf("insitu: fsck: %w", err)
	}

	// Journal pass: damage, torn tail and incompleteness, then every
	// committed artifact against its journaled length + CRC32C.
	switch {
	case log.Damage != nil:
		issue(JournalName, -1, classifyDamage(log.Damage), log.Damage.Error())
	case len(log.Tail) > 0:
		issue(JournalName, -1, DamageTruncated,
			fmt.Sprintf("torn tail of %d bytes after a valid prefix of %d", len(log.Tail), log.ValidLen))
	}
	if log.Damage == nil && log.End == nil {
		issue(JournalName, -1, DamageIncomplete,
			"no end record: the run did not finish (resumable with insitu-run -resume)")
	}
	rep.Begin, rep.Complete = log.Begin, log.End != nil
	journaled := map[string]int64{} // committed artifact → its length
	badSteps := map[int]bool{}
	for _, rec := range log.Committed() {
		rep.Committed = append(rep.Committed, rec.Step)
		for _, jf := range rec.Files {
			journaled[jf.Path] = jf.Bytes
			rep.FilesChecked++
			rep.BytesChecked += jf.Bytes
			if _, err := ReadArtifact(dir, jf); err != nil {
				badSteps[rec.Step] = true
				issue(jf.Path, rec.Step, classifyDamage(err), err.Error())
			}
		}
	}

	// Manifest pass: structural validation, and every entry must be one a
	// select record commits (same path, same length).
	listed := map[string]bool{}
	m, merr := ReadManifest(dir)
	switch {
	case errors.Is(merr, fs.ErrNotExist):
		if log.End != nil {
			issue(ManifestName, -1, DamageMissing, "journal records a completed run but the manifest is gone")
		}
		// An incomplete run legitimately has no manifest yet.
	case merr != nil:
		issue(ManifestName, -1, DamageCorrupt, merr.Error())
	default:
		for _, mf := range m.Files {
			listed[mf.Path] = true
			if n, ok := journaled[mf.Path]; log.Damage == nil && (!ok || n != mf.Bytes) {
				issue(ManifestName, mf.Step, DamageCorrupt,
					fmt.Sprintf("lists %s (%d bytes), which no select record commits", mf.Path, mf.Bytes))
			}
		}
	}

	// Orphan pass: staging strays and unreferenced files.
	var orphans []string
	for _, name := range log.Files {
		if _, ok := journaled[name]; ok || listed[name] {
			continue
		}
		orphans = append(orphans, name)
		detail := "referenced by neither journal nor manifest"
		if strings.HasSuffix(name, store.TempSuffix) {
			detail = "staging file stranded by a crash"
		}
		issue(name, -1, DamageOrphan, detail)
	}

	if !opt.Repair || rep.Clean() || log.Damage != nil {
		return rep, nil // a missing or corrupt journal leaves nothing to repair from
	}
	if err := repair(dir, rep, log, badSteps, orphans); err != nil {
		return rep, err
	}
	rep.Repaired = true
	return rep, nil
}

// classifyDamage maps a verification error to a damage class.
func classifyDamage(err error) string {
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return DamageMissing
	case errors.Is(err, io.ErrUnexpectedEOF):
		return DamageTruncated
	default:
		return DamageCorrupt
	}
}

// repair executes the -repair plan: quarantine the torn journal tail,
// orphans, and every file of each damaged step, then — for a completed run
// only — rewrite a manifest and a journal that cover only the surviving
// steps. An incomplete journal is left in place minus its torn tail so
// Resume can still continue the run; without a begin record nothing is
// rewritten. Fsck never calls it on a damaged journal.
func repair(dir string, rep *FsckReport, log *RunLog, badSteps map[int]bool, orphans []string) error {
	act := func(path, action string) {
		for i := range rep.Issues {
			if rep.Issues[i].Path == path && rep.Issues[i].Action == "" {
				rep.Issues[i].Action = action
			}
		}
	}
	if len(log.Tail) > 0 {
		if err := quarantineBytes(dir, JournalName+".tail", log.Tail); err != nil {
			return err
		}
		if err := os.Truncate(filepath.Join(dir, JournalName), log.ValidLen); err != nil {
			return err
		}
		act(JournalName, "torn tail quarantined and truncated")
	}
	for _, name := range orphans {
		if err := quarantineFile(dir, name); err != nil {
			return err
		}
		act(name, "quarantined")
	}
	// Whole-step granularity: the manifest invariant is one file per
	// variable per selected step, so a step with any damaged artifact is
	// dropped entirely and its surviving siblings quarantined with it.
	var kept []*JournalRecord
	for _, rec := range log.Committed() {
		if !badSteps[rec.Step] {
			kept = append(kept, rec)
			continue
		}
		for _, jf := range rec.Files {
			if err := quarantineFile(dir, jf.Path); err != nil {
				return err
			}
			act(jf.Path, "step quarantined")
		}
	}
	if log.End == nil {
		// The run is resumable (or has no begin record to rebuild from);
		// rewriting the manifest now would claim completeness it does not
		// have. Quarantining was enough.
		return nil
	}

	// Rebuild the manifest and the journal from the surviving select
	// records: begin, those selects, and an end record over them.
	begin := log.Begin
	nm := Manifest{Workload: begin.Workload, Method: begin.Method, Vars: begin.Vars, Steps: begin.Steps}
	out := []*JournalRecord{begin}
	for _, rec := range kept {
		nm.Selected = append(nm.Selected, rec.Step)
		out = append(out, rec)
		for _, jf := range rec.Files {
			nm.Files = append(nm.Files, ManifestFile{Step: rec.Step, Var: jf.Var, Path: jf.Path, Bytes: jf.Bytes})
		}
	}
	data, err := marshalManifest(&nm)
	if err != nil {
		return err
	}
	if _, err := store.AtomicWriteBytes(nil, filepath.Join(dir, ManifestName), data); err != nil {
		return err
	}
	act(ManifestName, "rewritten")

	buf := journalHeader()
	out = append(out, &JournalRecord{Kind: KindEnd, Selected: nm.Selected})
	for _, rec := range out {
		frame, err := encodeFrame(rec)
		if err != nil {
			return err
		}
		buf = append(buf, frame...)
	}
	if _, err := store.AtomicWriteBytes(nil, filepath.Join(dir, JournalName), buf); err != nil {
		return err
	}
	act(JournalName, "rewritten")
	return nil
}
