package insitu

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"insitubits/internal/selection"
	"insitubits/internal/store"
)

// resumeState is the replay plan Resume derives from a run journal: which
// steps' scores are already decided, which committed steps' artifacts
// verified on disk, and which steps must be fully re-reduced because the
// continuation still needs their real summaries.
type resumeState struct {
	// frontier is the last step with a durable journal record; steps past
	// it are fresh work.
	frontier int
	// scores replays the journaled selection scores (exact: Go's float64
	// JSON representation round-trips bit-for-bit).
	scores map[int]float64
	// durable maps committed steps whose artifacts verified (length and
	// whole-file CRC32C) to their journal file records; the writer copies
	// their manifest entries instead of rewriting them.
	durable map[int][]JournalFile
	// needed marks steps the replay must re-reduce for real: the last
	// committed winner (future steps score against it), the open
	// interval's incumbent (it may yet be committed and written), and any
	// committed winner whose artifacts were damaged.
	needed map[int]bool
	// stubBytes carries the journaled output volume of durable steps into
	// their replay stubs so the resumed run's accounting stays honest.
	stubBytes map[int]int64
}

func (rs *resumeState) needsReduce(t int) bool {
	return t > rs.frontier || rs.needed[t]
}

func (rs *resumeState) stub(t int) *stepSummary {
	return &stepSummary{step: t, replay: true, outBytes: rs.stubBytes[t]}
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
	jpath := filepath.Join(dir, JournalName)
	data, err := os.ReadFile(jpath)
	if err != nil {
		return nil, fmt.Errorf("insitu: no resumable run in %s: %w", dir, err)
	}
	// Stray staging files are uncommitted by construction.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), store.TempSuffix) {
			if err := quarantineFile(dir, e.Name()); err != nil {
				return nil, err
			}
		}
	}
	recs, validLen, perr := ParseJournal(data)
	if perr != nil {
		// A journal whose very header is unreadable (a kill during the
		// first write leaves fewer than 8 bytes) holds nothing durable:
		// park it and start the run over.
		if err := quarantineBytes(dir, JournalName+".damaged", data); err != nil {
			return nil, err
		}
		return Run(cfg)
	}
	// A torn tail is the expected residue of a kill mid-append: park the
	// bytes in quarantine and truncate the journal to its valid prefix so
	// the continuation appends cleanly.
	if int64(len(data)) > validLen {
		if err := quarantineBytes(dir, JournalName+".tail", data[validLen:]); err != nil {
			return nil, err
		}
		if err := os.Truncate(jpath, validLen); err != nil {
			return nil, fmt.Errorf("insitu: truncating torn journal tail: %w", err)
		}
	}
	if len(recs) == 0 {
		// The crash predates even the begin record; nothing is durable, so
		// this is a fresh run (Run truncates the journal).
		return Run(cfg)
	}
	if err := recs[0].matchesConfig(cfg); err != nil {
		return nil, err
	}

	scores := map[int]float64{}
	selects := map[int]*JournalRecord{}
	frontier := -1
	var end *JournalRecord
	for i := range recs {
		rec := &recs[i]
		switch rec.Kind {
		case KindScore:
			scores[rec.Step] = rec.Score
		case KindSelect:
			selects[rec.Step] = rec // last record wins: a rewrite supersedes
		case KindEnd:
			end = rec
			continue
		default:
			continue
		}
		if rec.Step > frontier {
			frontier = rec.Step
		}
	}
	if end != nil {
		// The run completed; the end record guarantees the manifest was
		// durable when it was written, so only verify, never recompute.
		if _, err := ReadManifest(dir); err != nil {
			return nil, fmt.Errorf("insitu: journal records a completed run but the manifest does not verify (run fsck): %w", err)
		}
		return &Result{Selected: end.Selected}, nil
	}

	// Verify every committed step's artifacts by length and whole-file
	// CRC32C. Damage demotes the step to "needed": its files are
	// quarantined here and rewritten (with a superseding select record)
	// when the replay re-commits it.
	durable := map[int][]JournalFile{}
	needed := map[int]bool{}
	stubBytes := map[int]int64{}
	lastWinner := -1
	for step, rec := range selects {
		if step > lastWinner {
			lastWinner = step
		}
		total, bad := int64(0), false
		for _, jf := range rec.Files {
			total += jf.Bytes
			if verifyArtifact(dir, jf) != nil {
				bad = true
				if _, serr := os.Stat(filepath.Join(dir, jf.Path)); serr == nil {
					if qerr := quarantineFile(dir, jf.Path); qerr != nil {
						return nil, qerr
					}
				}
			}
		}
		if bad {
			needed[step] = true
		} else {
			durable[step] = rec.Files
			stubBytes[step] = total
		}
	}
	// Future steps score against the last committed winner, so its real
	// summary must exist even when its files are durable.
	if lastWinner >= 0 {
		needed[lastWinner] = true
	}
	// The open interval's incumbent may still be committed and written: the
	// selector's greedy, fed that interval's journaled scores, keeps it last.
	intervals := selection.FixedLength{}.Partition(make([]float64, cfg.Steps), cfg.Select)
	committed := len(selects)
	if _, ok := selects[0]; ok {
		committed-- // step 0 is not an interval winner
	}
	if committed < len(intervals) {
		g, iv, incumbent := selection.NewGreedy(cfg.Steps, cfg.Select), intervals[committed], -1
		for t := iv[0]; t < iv[1] && t <= frontier; t++ {
			if sc, ok := scores[t]; ok && g.Offer(t, sc)&selection.Keep != 0 {
				incumbent = t
			}
		}
		if incumbent >= 0 {
			needed[incumbent] = true
		}
	}

	cfg.resume = &resumeState{
		frontier:  frontier,
		scores:    scores,
		durable:   durable,
		needed:    needed,
		stubBytes: stubBytes,
	}
	return Run(cfg)
}

// verifyArtifact checks one journaled artifact against the bytes on disk:
// exact length and whole-file CRC32C, no format parsing needed.
func verifyArtifact(dir string, jf JournalFile) error {
	data, err := os.ReadFile(filepath.Join(dir, jf.Path))
	if err != nil {
		return err
	}
	if int64(len(data)) < jf.Bytes {
		return fmt.Errorf("insitu: %s is %d bytes, journal records %d: %w",
			jf.Path, len(data), jf.Bytes, io.ErrUnexpectedEOF)
	}
	if int64(len(data)) > jf.Bytes {
		return fmt.Errorf("insitu: %s is %d bytes, journal records %d: %w",
			jf.Path, len(data), jf.Bytes, store.ErrChecksum)
	}
	if store.CRC32C(data) != jf.CRC {
		return fmt.Errorf("insitu: %s: %w", jf.Path, store.ErrChecksum)
	}
	return nil
}

// quarantineFile moves dir/name into dir/quarantine/, replacing any earlier
// quarantined file of the same name.
func quarantineFile(dir, name string) error {
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
