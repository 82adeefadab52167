package insitu

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"insitubits/internal/selection"
	"insitubits/internal/store"
)

// resumeState is the replay plan Resume derives from the run log: which
// committed steps' artifacts verified on disk, and which steps must be
// fully re-reduced because the continuation still needs their real
// summaries.
type resumeState struct {
	// log holds the journaled scores (exact: Go's float64 JSON
	// representation round-trips bit-for-bit) and the frontier, the last
	// step with a durable record; steps past it are fresh work.
	log *RunLog
	// durable maps committed steps whose artifacts verified (length and
	// whole-file CRC32C) to their journal file records; the writer copies
	// their manifest entries instead of rewriting them, such a step is not
	// encoded again, and its summary — a replay stub or re-reduced —
	// carries the journaled output volume so the resumed run's accounting
	// stays honest.
	durable map[int][]JournalFile
	// needed marks steps the replay must re-reduce for real: the last
	// committed winner (future steps score against it), the open
	// interval's incumbent (it may yet be committed and written), and any
	// committed winner whose artifacts were damaged.
	needed map[int]bool
}

func (rs *resumeState) stub(t int) *stepSummary {
	return &stepSummary{step: t, replay: true, outBytes: journalBytes(rs.durable[t])}
}

// journalBytes is the bytes a step's journaled artifacts hold.
func journalBytes(files []JournalFile) (n int64) {
	for _, jf := range files {
		n += jf.Bytes
	}
	return n
}

// Resume continues a crashed or cancelled run from dir's journal. It
// quarantines whatever the crash left half-done (torn journal tail, stray
// staging files, damaged artifacts), re-simulates from step 0 — simulators
// are deterministic, but their state is not checkpointed — while skipping
// the reduction and scoring of every step the journal already decided, and
// finishes the run. The resulting directory is byte-identical to what an
// uninterrupted run would have produced (quarantine/ aside).
//
// cfg must describe the same run (Resume checks it against the journal's
// begin record); cfg.OutputDir is overridden with dir. A journal that says
// the run already completed returns its recorded selection without
// recomputing anything.
func Resume(dir string, cfg Config) (*Result, error) {
	cfg.OutputDir = dir
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	log, err := ReadRunLog(dir)
	if err != nil {
		return nil, err
	}
	if errors.Is(log.Damage, fs.ErrNotExist) {
		return nil, fmt.Errorf("insitu: no resumable run in %s: %w", dir, log.Damage)
	}
	// Stray staging files are uncommitted by construction.
	for _, name := range log.Files {
		if strings.HasSuffix(name, store.TempSuffix) {
			if err := quarantineFile(dir, name); err != nil {
				return nil, err
			}
		}
	}
	if log.ValidLen == 0 {
		// A journal whose very header is unreadable (a kill during the
		// first write leaves fewer than 8 bytes) holds nothing durable:
		// park it and start the run over.
		if err := quarantineBytes(dir, JournalName+".damaged", log.Tail); err != nil {
			return nil, err
		}
		return Run(cfg)
	}
	if log.Damage != nil {
		return nil, log.Damage
	}
	// A torn tail is the expected residue of a kill mid-append: park the
	// bytes in quarantine and truncate the journal to its valid prefix so
	// the continuation appends cleanly.
	if len(log.Tail) > 0 {
		if err := quarantineBytes(dir, JournalName+".tail", log.Tail); err != nil {
			return nil, err
		}
		if err := os.Truncate(filepath.Join(dir, JournalName), log.ValidLen); err != nil {
			return nil, fmt.Errorf("insitu: truncating torn journal tail: %w", err)
		}
	}
	if log.Begin == nil {
		// The crash predates even the begin record; nothing is durable, so
		// this is a fresh run (Run truncates the journal).
		return Run(cfg)
	}
	if err := log.Begin.matchesConfig(cfg); err != nil {
		return nil, err
	}
	if log.End != nil {
		// The run completed; the end record guarantees the manifest was
		// durable when it was written, so only verify, never recompute.
		if _, err := ReadManifest(dir); err != nil {
			return nil, fmt.Errorf("insitu: journal records a completed run but the manifest does not verify (run fsck): %w", err)
		}
		return &Result{Selected: log.End.Selected}, nil
	}

	// Verify every committed step's artifacts by length and whole-file
	// CRC32C. Damage demotes the step to "needed": its files are
	// quarantined here and rewritten (with a superseding select record)
	// when the replay re-commits it.
	committed := log.Committed()
	durable := map[int][]JournalFile{}
	needed := map[int]bool{}
	for _, rec := range committed {
		for _, jf := range rec.Files {
			if _, err := ReadArtifact(dir, jf); err != nil {
				needed[rec.Step] = true
				if err := quarantineFile(dir, jf.Path); err != nil {
					return nil, err
				}
			}
		}
		if !needed[rec.Step] {
			durable[rec.Step] = rec.Files
		}
	}
	// Future steps score against the last committed winner, so its real
	// summary must exist even when its files are durable.
	winners := len(committed)
	if winners > 0 {
		needed[committed[winners-1].Step] = true
		if committed[0].Step == 0 {
			winners-- // step 0 is not an interval winner
		}
	}
	// The open interval's incumbent may still be committed and written: the
	// selector's greedy, fed that interval's journaled scores, keeps it last.
	intervals := selection.FixedLength{}.Partition(make([]float64, cfg.Steps), cfg.Select)
	if winners < len(intervals) {
		g, iv, incumbent := selection.NewGreedy(cfg.Steps, cfg.Select), intervals[winners], -1
		for t := iv[0]; t < iv[1] && t <= log.Frontier; t++ {
			if sc, ok := log.Scores[t]; ok && g.Offer(t, sc)&selection.Keep != 0 {
				incumbent = t
			}
		}
		if incumbent >= 0 {
			needed[incumbent] = true
		}
	}

	cfg.resume = &resumeState{log: log, durable: durable, needed: needed}
	return Run(cfg)
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
