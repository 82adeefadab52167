package insitu

import (
	"bytes"
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
// crash; "orphan" is a file no select record commits, whatever the
// manifest lists (stray staging files included); "incomplete" is a journal
// without an end record — the run never finished and can be resumed.
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
	// Repair brings the directory back to its journal — the torn journal
	// tail, orphans and every file of a damaged step move to quarantine/ —
	// and, for a completed run, rewrites the journal and the manifest over
	// the surviving steps. Nothing is deleted. A directory whose journal
	// cannot be folded is left as it is.
	Repair bool
}

// Fsck verifies an output directory end to end against its journal, the
// only record of what the run committed: the journal's integrity (header,
// frame checksums, torn tail, a begin record first), every committed
// artifact's length and whole-file CRC32C, a completed run's manifest
// against the journal's rendering, and files no select record commits. A
// journal that cannot be folded (missing, a header that does not verify, no
// begin record first) is the one issue reported: there is nothing to check
// the directory against or repair it from. Damage is classified per
// FsckIssue; the error return is reserved for fsck itself failing, not for
// problems it found.
func Fsck(dir string, opt FsckOptions) (*FsckReport, error) {
	log, err := ReadRunLog(dir)
	if err != nil {
		return nil, fmt.Errorf("insitu: fsck: %w", err)
	}
	rep, bad, err := restore(dir, log, opt.Repair && log.Damage == nil)
	if err != nil || !rep.Repaired || log.End == nil {
		// An incomplete run stays resumable: rewriting its manifest would
		// claim a completeness it does not have.
		return rep, err
	}
	return rep, rewrite(dir, rep, log, bad)
}

// audit checks dir against its folded journal and returns the report and
// the committed steps with a damaged artifact. Issues come in a fixed
// order: the journal, the committed artifacts in step order, the manifest,
// the orphans.
func audit(dir string, log *RunLog) (*FsckReport, map[int]bool) {
	rep := &FsckReport{Dir: dir, Begin: log.Begin, Complete: log.End != nil}
	issue := func(path string, step int, class, detail string) {
		rep.Issues = append(rep.Issues, FsckIssue{Path: path, Step: step, Class: class, Detail: detail})
	}
	bad := map[int]bool{}
	if log.Damage != nil {
		issue(JournalName, -1, classifyDamage(log.Damage), log.Damage.Error())
		return rep, bad
	}
	if len(log.Tail) > 0 {
		issue(JournalName, -1, DamageTruncated,
			fmt.Sprintf("torn tail of %d bytes after a valid prefix of %d", len(log.Tail), log.ValidLen))
	}
	if log.End == nil {
		issue(JournalName, -1, DamageIncomplete,
			"no end record: the run did not finish (resumable with insitu-run -resume)")
	}
	committed := map[string]bool{}
	for _, rec := range log.Committed() {
		rep.Committed = append(rep.Committed, rec.Step)
		for _, jf := range rec.Files {
			committed[jf.Path] = true
			rep.FilesChecked++
			rep.BytesChecked += jf.Bytes
			if _, err := ReadArtifact(dir, jf); err != nil {
				bad[rec.Step] = true
				issue(jf.Path, rec.Step, classifyDamage(err), err.Error())
			}
		}
	}
	// A completed run's manifest is the journal's rendering, byte for byte;
	// an unfinished run's is written when it finishes.
	if log.End != nil {
		_, want := manifestOf(log)
		if got, err := os.ReadFile(filepath.Join(dir, ManifestName)); err != nil {
			issue(ManifestName, -1, classifyDamage(err), err.Error())
		} else if !bytes.Equal(got, want) {
			issue(ManifestName, -1, DamageCorrupt, "differs from the journal's rendering")
		}
	}
	for _, name := range log.Files {
		if committed[name] {
			continue
		}
		detail := "committed by no select record"
		if strings.HasSuffix(name, store.TempSuffix) {
			detail = "staging file stranded by a crash"
		}
		issue(name, -1, DamageOrphan, detail)
	}
	return rep, bad
}

// restore audits dir against its folded journal and, with repair set and
// anything found, brings the directory back to the journal: the torn tail
// is quarantined and the journal truncated to its valid prefix, orphans —
// staging strays included — are quarantined, and so is every file of a
// damaged step. It rewrites neither journal nor manifest. Fsck and Resume
// both call it; it returns the report and the damaged steps.
func restore(dir string, log *RunLog, repair bool) (*FsckReport, map[int]bool, error) {
	rep, bad := audit(dir, log)
	if !repair || rep.Clean() {
		return rep, bad, nil
	}
	if len(log.Tail) > 0 {
		if err := quarantineBytes(dir, JournalName+".tail", log.Tail); err != nil {
			return rep, bad, err
		}
		if err := os.Truncate(filepath.Join(dir, JournalName), log.ValidLen); err != nil {
			return rep, bad, fmt.Errorf("insitu: truncating torn journal tail: %w", err)
		}
		rep.act(JournalName, "torn tail quarantined and truncated")
	}
	for _, is := range rep.Issues {
		if is.Class == DamageOrphan {
			if err := quarantineFile(dir, is.Path); err != nil {
				return rep, bad, err
			}
			rep.act(is.Path, "quarantined")
		}
	}
	// Whole-step granularity: a step is one file per variable, so a step
	// with any damaged artifact goes whole, its surviving siblings with it.
	for _, rec := range log.Committed() {
		if !bad[rec.Step] {
			continue
		}
		for _, jf := range rec.Files {
			if err := quarantineFile(dir, jf.Path); err != nil {
				return rep, bad, err
			}
			rep.act(jf.Path, "step quarantined")
		}
	}
	rep.Repaired = true
	return rep, bad, nil
}

// rewrite ends the repair of a completed run: the journal becomes its begin
// record, the surviving select records and an end record over them, and the
// manifest that journal's rendering.
func rewrite(dir string, rep *FsckReport, log *RunLog, bad map[int]bool) error {
	kept := &RunLog{Begin: log.Begin}
	for _, rec := range log.Committed() {
		if !bad[rec.Step] {
			kept.committed = append(kept.committed, rec)
		}
	}
	m, data := manifestOf(kept)
	if _, err := store.AtomicWriteBytes(nil, filepath.Join(dir, ManifestName), data); err != nil {
		return err
	}
	buf := journalHeader()
	recs := append([]*JournalRecord{log.Begin}, kept.committed...)
	for _, rec := range append(recs, &JournalRecord{Kind: KindEnd, Selected: m.Selected}) {
		frame, err := encodeFrame(rec)
		if err != nil {
			return err
		}
		buf = append(buf, frame...)
	}
	if _, err := store.AtomicWriteBytes(nil, filepath.Join(dir, JournalName), buf); err != nil {
		return err
	}
	rep.act(ManifestName, "rewritten")
	rep.act(JournalName, "rewritten")
	return nil
}

// act records what the repair did on every issue of path it has not acted
// on yet.
func (r *FsckReport) act(path, action string) {
	for i := range r.Issues {
		if r.Issues[i].Path == path && r.Issues[i].Action == "" {
			r.Issues[i].Action = action
		}
	}
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

// quarantineFile moves dir/name, if it exists, into dir/quarantine/,
// replacing any earlier quarantined file of the same name.
func quarantineFile(dir, name string) error {
	if _, err := os.Lstat(filepath.Join(dir, name)); errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	qdir := filepath.Join(dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("insitu: quarantine dir: %w", err)
	}
	if err := os.Rename(filepath.Join(dir, name), filepath.Join(qdir, name)); err != nil {
		return fmt.Errorf("insitu: quarantining %s: %w", name, err)
	}
	return nil
}

// quarantineBytes writes raw bytes (a torn journal tail) into quarantine.
func quarantineBytes(dir, name string, data []byte) error {
	qdir := filepath.Join(dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("insitu: quarantine dir: %w", err)
	}
	if err := os.WriteFile(filepath.Join(qdir, name), data, 0o644); err != nil {
		return fmt.Errorf("insitu: quarantining %s: %w", name, err)
	}
	return nil
}
