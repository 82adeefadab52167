package insitu

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"insitubits/internal/iosim"
	"insitubits/internal/selection"
	"insitubits/internal/store"
	"insitubits/internal/telemetry"
)

// Manifest records what a pipeline run persisted, one entry per selected
// time-step, written as manifest.json next to the data files so offline
// tools can find and validate everything.
type Manifest struct {
	Workload string         `json:"workload"`
	Method   string         `json:"method"`
	Vars     []string       `json:"vars"`
	Steps    int            `json:"steps"`
	Selected []int          `json:"selected"`
	Files    []ManifestFile `json:"files"`
}

// ManifestFile describes one persisted artifact.
type ManifestFile struct {
	Step  int    `json:"step"`
	Var   string `json:"var"`
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
}

// ManifestName is the manifest's file name inside the output directory.
const ManifestName = "manifest.json"

// QuarantineDir is the subdirectory Resume and fsck move damaged or stray
// files into — nothing is silently deleted, and nothing quarantined is ever
// read back.
const QuarantineDir = "quarantine"

// writer persists selected summaries when Config.OutputDir is set. Every
// artifact goes through store.AtomicWrite (never torn on disk), transient
// store errors are retried with backoff, and each committed step is sealed
// with a fsync'd journal record before the run moves on — the contract
// Resume and fsck build on.
type writer struct {
	dir    string
	vars   []string
	fs     iosim.FS
	jnl    *journal
	ctx    context.Context
	retry  iosim.Backoff
	resume *resumeState
	rt     *runTelemetry
}

func newWriter(cfg Config, rt *runTelemetry) (*writer, error) {
	if cfg.OutputDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(cfg.OutputDir, 0o755); err != nil {
		return nil, fmt.Errorf("insitu: output dir: %w", err)
	}
	w := &writer{
		dir:    cfg.OutputDir,
		vars:   cfg.Sim.Vars(),
		fs:     cfg.fsys(),
		ctx:    cfg.context(),
		resume: cfg.resume,
		rt:     rt,
	}
	// iosim.Retry's default policy; each retry surfaces in telemetry.
	w.retry.OnRetry = func(int, error) { rt.storeRetries.Inc() }
	var err error
	if cfg.resume != nil {
		// The journal already opens with this run's begin record; the torn
		// tail (if any) was truncated before Run restarted.
		w.jnl, err = openJournalAppend(w.fs, w.dir, w.ctx, w.retry)
	} else {
		w.jnl, err = createJournal(w.fs, w.dir, w.ctx, w.retry)
		if err == nil {
			err = w.jnl.append(beginRecord(cfg))
		}
	}
	if err != nil {
		w.close()
		return nil, err
	}
	rt.setJournal("active")
	return w, nil
}

// writeStep persists one selected step's per-variable summaries, then seals
// the step with a journal select record. Steps the resume state already
// verified as durable are not rewritten: their select records stand. When
// ctx carries an identity-trace span, each artifact write records a store.*
// child span and the select record is stamped with the step's trace ID.
func (w *writer) writeStep(ctx context.Context, sum *stepSummary) error {
	if w.resume != nil {
		if _, ok := w.resume.durable[sum.step]; ok {
			return nil
		}
	}
	rec := &JournalRecord{Kind: KindSelect, Step: sum.step, TraceID: telemetry.TraceIDOf(ctx)}
	for k, part := range sum.parts {
		name := fmt.Sprintf("step%04d_%s", sum.step, sanitize(w.vars[k]))
		var path string
		var body func(io.Writer) (int64, error)
		switch p := part.(type) {
		case *selection.RunSummary:
			x := sum.xs[k]
			path = filepath.Join(w.dir, name+".isbm")
			body = func(f io.Writer) (int64, error) { return store.WriteIndexCtx(ctx, f, x) }
		case *selection.DataSummary:
			path = filepath.Join(w.dir, name+".israw")
			body = func(f io.Writer) (int64, error) { return store.WriteRawCtx(ctx, f, p.Data) }
		default:
			return fmt.Errorf("insitu: cannot persist summary type %T", part)
		}
		n, crc, err := w.atomicWrite(path, body)
		if err != nil {
			return err
		}
		rec.Files = append(rec.Files, JournalFile{
			Var: w.vars[k], Path: filepath.Base(path), Bytes: n, CRC: crc,
		})
	}
	return w.jnl.append(rec)
}

// atomicWrite stages one artifact through store.AtomicWrite, retrying
// transient store errors with the configured backoff. A crash error is not
// transient, so an injected kill aborts immediately.
func (w *writer) atomicWrite(path string, body func(io.Writer) (int64, error)) (n int64, crc uint32, err error) {
	err = iosim.Retry(w.ctx, w.retry, func() error {
		var werr error
		n, crc, werr = store.AtomicWrite(w.fs, path, body)
		return werr
	})
	return n, crc, err
}

// recordScore journals one step's selection score. Nil-safe: runs without
// an output directory keep no journal. The score is durable before the
// interval logic can act on it, so a resumed run replays the selection
// exactly instead of recomputing it. traceID (empty when tracing is off)
// links the record to the step's identity trace.
func (w *writer) recordScore(t int, score float64, traceID string) error {
	if w == nil {
		return nil
	}
	return w.jnl.append(&JournalRecord{Kind: KindScore, Step: t, Score: score, TraceID: traceID})
}

// finish commits the manifest — the rendering of the journal read back, every
// append of which is already fsync'd — atomically, then seals the run with
// the journal's end record over the same selection: in that order, so an end
// record on disk implies a durable manifest.
func (w *writer) finish() error {
	log, err := ReadRunLog(w.dir)
	if err != nil {
		return err
	}
	if log.Damage != nil {
		return log.Damage
	}
	m, data := manifestOf(log)
	path := filepath.Join(w.dir, ManifestName)
	if err := iosim.Retry(w.ctx, w.retry, func() error {
		_, werr := store.AtomicWriteBytes(w.fs, path, data)
		return werr
	}); err != nil {
		return err
	}
	if err := w.jnl.append(&JournalRecord{Kind: KindEnd, Selected: m.Selected}); err != nil {
		return err
	}
	if err := w.jnl.close(); err != nil {
		return err
	}
	w.rt.setJournal("sealed")
	return nil
}

// close releases the journal handle without sealing the run (error paths).
func (w *writer) close() {
	if w == nil {
		return
	}
	w.jnl.close()
	w.jnl = nil
}

// sanitize maps a variable name to a file-name-safe token.
func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// ReadManifest loads and validates a manifest from an output directory.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("insitu: parsing manifest: %w", err)
	}
	if len(m.Selected)*max(1, len(m.Vars)) != len(m.Files) {
		return nil, fmt.Errorf("insitu: manifest lists %d files for %d selections x %d vars",
			len(m.Files), len(m.Selected), len(m.Vars))
	}
	return &m, nil
}

// manifestOf renders the manifest a folded journal implies, and its
// manifest.json bytes: the begin record's workload, method, variables and
// step count, the committed steps in step order, and each committed step's
// files in its select record's variable order. It is the one place a
// manifest is built — the writer writes it, fsck compares manifest.json with
// it and its repair rewrites it — so the manifest never says more or less
// than the journal.
func manifestOf(log *RunLog) (*Manifest, []byte) {
	b := log.Begin
	m := &Manifest{Workload: b.Workload, Method: b.Method, Vars: b.Vars, Steps: b.Steps}
	for _, rec := range log.Committed() {
		m.Selected = append(m.Selected, rec.Step)
		for _, jf := range rec.Files {
			m.Files = append(m.Files, ManifestFile{Step: rec.Step, Var: jf.Var, Path: jf.Path, Bytes: jf.Bytes})
		}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // strings and integers always marshal
	}
	return m, data
}
