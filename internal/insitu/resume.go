package insitu

import (
	"errors"
	"fmt"
	"io/fs"

	"insitubits/internal/selection"
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
	// whole-file CRC32C) to their journal file records; the writer does not
	// rewrite them, such a step is not encoded again, and its summary — a
	// replay stub or re-reduced — carries the journaled output volume so
	// the resumed run's accounting stays honest.
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

// Resume continues a crashed or cancelled run from dir's journal. It checks
// cfg against the journal's begin record before anything moves, then repairs
// the directory the way fsck -repair does (restore: the torn journal tail,
// orphans and damaged steps go to quarantine/), re-simulates from step 0 —
// simulators are deterministic, but their state is not checkpointed — while
// skipping the reduction and scoring of every step the journal already
// decided, and finishes the run. The resulting directory is byte-identical to
// what an uninterrupted run would have produced (quarantine/ aside).
//
// cfg.OutputDir is overridden with dir. A journal that says the run already
// completed returns its recorded selection without recomputing or moving
// anything, provided the directory audits clean; otherwise the error names
// the first issue and leaves the repair to fsck -repair.
func Resume(dir string, cfg Config) (*Result, error) {
	cfg.OutputDir = dir
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	log, err := ReadRunLog(dir)
	if err != nil {
		return nil, err
	}
	// A header that does not verify (ValidLen 0) holds nothing durable:
	// restore parks it below and the run starts over. A verified header
	// followed by anything but a begin record is a damaged journal.
	switch {
	case errors.Is(log.Damage, fs.ErrNotExist):
		return nil, fmt.Errorf("insitu: no resumable run in %s: %w", dir, log.Damage)
	case log.Damage != nil && log.ValidLen > 0:
		return nil, log.Damage
	case log.Begin != nil:
		if err := log.Begin.matchesConfig(cfg); err != nil {
			return nil, err
		}
	}
	rep, bad, err := restore(dir, log, log.End == nil)
	if err != nil {
		return nil, err
	}
	if log.Begin == nil {
		// Nothing is durable — the crash predates the begin record, or even
		// the journal's header, which restore parked as a torn tail — so this
		// is a fresh run (Run truncates the journal).
		return Run(cfg)
	}
	if log.End != nil {
		if !rep.Clean() {
			is := rep.Issues[0]
			return nil, fmt.Errorf("insitu: %s records a completed run, but %s is %s (%s): run fsck -repair",
				dir, is.Path, is.Class, is.Detail)
		}
		return &Result{Selected: log.End.Selected}, nil
	}

	// A damaged step's files are in quarantine now; it is re-reduced and
	// rewritten, with a superseding select record, when the replay commits
	// it again.
	committed := log.Committed()
	durable := map[int][]JournalFile{}
	needed := map[int]bool{}
	for _, rec := range committed {
		if bad[rec.Step] {
			needed[rec.Step] = true
		} else {
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
