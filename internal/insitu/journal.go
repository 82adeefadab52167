package insitu

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"insitubits/internal/iosim"
	"insitubits/internal/store"
)

// The run journal (journal.isbj) is the pipeline's crash-safety spine: an
// append-only, fsync-per-record log of everything the run decided and made
// durable. A step's artifacts count as persisted only once its "select"
// record is in the journal, so on restart Resume can replay the journal,
// quarantine whatever a crash left half-written, and continue the run from
// the last durable step without recomputing what already survived.
//
// The file is an 8-byte header (magic "ISBJ", u32 version 1) and then
// frames of u32 length, that many bytes of JSON (one JournalRecord) and the
// payload's u32 CRC32C, little-endian (docs/FORMATS.md). A torn tail — a
// partial frame, or a frame whose checksum disagrees — ends the valid
// prefix; everything after it is quarantined on resume, never trusted.

// JournalName is the journal's file name inside the output directory.
const JournalName = "journal.isbj"

const (
	journalMagic   = "ISBJ"
	journalVersion = 1
	// maxJournalRecord bounds one frame's payload so a corrupt length field
	// cannot demand an absurd allocation.
	maxJournalRecord = 1 << 20
	journalHeaderLen = 8
)

// Record kinds, in the order a run emits them.
const (
	// KindBegin opens a journal with the run's config fingerprint.
	KindBegin = "begin"
	// KindScore records one offered step's selection score (steps >= 1).
	KindScore = "score"
	// KindSelect commits one selected step: its artifacts are durable
	// (written, fsynced, renamed, directory fsynced) before this record is
	// appended.
	KindSelect = "select"
	// KindEnd closes a completed run; the manifest is durable before it.
	KindEnd = "end"
)

// JournalRecord is one journal entry. Kind decides which fields are set.
type JournalRecord struct {
	Kind string `json:"kind"`

	// Begin: the config fingerprint Resume validates against.
	Workload  string   `json:"workload,omitempty"`
	Method    string   `json:"method,omitempty"`
	Vars      []string `json:"vars,omitempty"`
	Steps     int      `json:"steps,omitempty"`
	Select    int      `json:"select,omitempty"`
	Bins      int      `json:"bins,omitempty"`
	Codec     string   `json:"codec,omitempty"`
	Metric    string   `json:"metric,omitempty"`
	SamplePct float64  `json:"sample_pct,omitempty"`
	Seed      int64    `json:"seed,omitempty"`

	// Score and Select.
	Step int `json:"step,omitempty"`
	// Score is the step's dissimilarity vs the previously selected step.
	Score float64 `json:"score,omitempty"`
	// TraceID links a score/select record to the identity trace of the
	// pipeline step that produced it (see internal/telemetry). Empty — and
	// absent from the JSON — when tracing is disabled, so journals stay
	// byte-identical with pre-tracing runs and across traced/untraced
	// replays of the same configuration.
	TraceID string `json:"trace_id,omitempty"`

	// Select: the step's durable artifacts.
	Files []JournalFile `json:"files,omitempty"`

	// End: the final selected step set.
	Selected []int `json:"selected,omitempty"`
}

// JournalFile describes one durable artifact of a selected step: its
// on-disk name, exact length, and whole-file CRC32C, enough for fsck and
// Resume to verify the file without parsing it.
type JournalFile struct {
	Var   string `json:"var"`
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
	CRC   uint32 `json:"crc"`
}

// journal is the append side. Every append is a single write of one framed
// record followed by an fsync, so the file only ever grows by whole frames
// (modulo the torn tail a kill can leave, which replay cuts off).
type journal struct {
	f     iosim.File
	ctx   context.Context
	retry iosim.Backoff
}

// writeAll pushes buf through the journal's file with retry — but only
// attempts where nothing landed are retryable. Once any prefix of buf is
// on disk, a retry would follow the torn bytes with a duplicate and
// corrupt every later record, so a partial landing is a hard error (the
// run aborts resumable, replay cuts the torn tail).
func (j *journal) writeAll(buf []byte) error {
	return iosim.Retry(j.ctx, j.retry, func() error {
		n, err := j.f.Write(buf)
		switch {
		case err == nil:
			return nil
		case n > 0:
			return fmt.Errorf("insitu: journal write tore after %d of %d bytes: %v", n, len(buf), err)
		default:
			return fmt.Errorf("insitu: journal write: %w", err)
		}
	})
}

// createJournal starts a fresh journal (truncating any previous one) and
// makes its existence durable before the run writes anything else.
func createJournal(fsys iosim.FS, dir string, ctx context.Context, retry iosim.Backoff) (*journal, error) {
	path := filepath.Join(dir, JournalName)
	f, err := fsys.Create(path)
	if err != nil {
		return nil, fmt.Errorf("insitu: creating journal: %w", err)
	}
	j := &journal{f: f, ctx: ctx, retry: retry}
	if err := j.writeAll(journalHeader()); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("insitu: syncing journal: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("insitu: syncing journal dir: %w", err)
	}
	return j, nil
}

// openJournalAppend reopens an existing journal for appending (the resume
// path; the caller has already truncated any torn tail).
func openJournalAppend(fsys iosim.FS, dir string, ctx context.Context, retry iosim.Backoff) (*journal, error) {
	path := filepath.Join(dir, JournalName)
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("insitu: reopening journal: %w", err)
	}
	return &journal{f: f, ctx: ctx, retry: retry}, nil
}

// journalHeader returns the 8-byte magic+version prefix.
func journalHeader() []byte {
	hdr := make([]byte, 0, journalHeaderLen)
	hdr = append(hdr, journalMagic...)
	return binary.LittleEndian.AppendUint32(hdr, journalVersion)
}

// encodeFrame serializes one record as a length-prefixed, checksummed frame.
func encodeFrame(rec *JournalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("insitu: journal record: %w", err)
	}
	if len(payload) > maxJournalRecord {
		return nil, fmt.Errorf("insitu: journal record of %d bytes exceeds frame limit", len(payload))
	}
	frame := make([]byte, 0, 4+len(payload)+4)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	return binary.LittleEndian.AppendUint32(frame, store.CRC32C(payload)), nil
}

// append frames rec, writes it in one call, and fsyncs. The record is
// durable when append returns nil.
func (j *journal) append(rec *JournalRecord) error {
	frame, err := encodeFrame(rec)
	if err != nil {
		return err
	}
	if err := j.writeAll(frame); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("insitu: journal sync: %w", err)
	}
	return nil
}

func (j *journal) close() error {
	if j == nil || j.f == nil {
		return nil
	}
	return j.f.Close()
}

// ParseJournal decodes journal bytes. It returns every record of the valid
// prefix and the prefix's byte length; a torn or corrupt tail is not an
// error — it is exactly what a kill mid-append leaves — but any byte past
// validLen must be quarantined, never replayed. A select record naming a
// file that is not a plain name (plainName) ends the valid prefix as a
// failed checksum does, so no reader ever resolves a journaled path outside
// the directory. Malformed bytes never panic; a journal whose header is
// damaged yields an error.
func ParseJournal(data []byte) (recs []JournalRecord, validLen int64, err error) {
	if len(data) < journalHeaderLen {
		return nil, 0, fmt.Errorf("insitu: journal too short (%d bytes)", len(data))
	}
	if string(data[:4]) != journalMagic {
		return nil, 0, fmt.Errorf("insitu: bad journal magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != journalVersion {
		return nil, 0, fmt.Errorf("insitu: unsupported journal version %d", v)
	}
	pos := int64(journalHeaderLen)
	for {
		rest := data[pos:]
		if len(rest) < 4 {
			return recs, pos, nil
		}
		n := binary.LittleEndian.Uint32(rest[:4])
		if n == 0 || n > maxJournalRecord || int64(len(rest)) < 4+int64(n)+4 {
			return recs, pos, nil
		}
		payload := rest[4 : 4+n]
		stored := binary.LittleEndian.Uint32(rest[4+n : 4+n+4])
		if store.CRC32C(payload) != stored {
			return recs, pos, nil
		}
		var rec JournalRecord
		if json.Unmarshal(payload, &rec) != nil || rec.Kind == "" {
			return recs, pos, nil
		}
		for _, jf := range rec.Files {
			if !plainName(jf.Path) {
				return recs, pos, nil
			}
		}
		recs = append(recs, rec)
		pos += 4 + int64(n) + 4
	}
}

// plainName reports whether a journaled artifact path names a file directly
// inside the output directory: no separator of either platform, not "" or
// a dot name, and none of the names the directory reserves for itself.
func plainName(p string) bool {
	switch p {
	case "", ".", "..", JournalName, ManifestName, QuarantineDir:
		return false
	}
	return !strings.ContainsAny(p, `/\`)
}

// RunLog is one read of a run's output directory: the journal folded into
// what Resume, fsck, the serve loader and the offline archive act on, and
// the files beside it.
type RunLog struct {
	// Files lists every non-directory entry except the journal and the
	// manifest: the artifacts, staging strays (store.TempSuffix) and
	// anything else.
	Files []string
	// ValidLen is the length of the journal's valid prefix and Tail the
	// bytes after it: a torn tail, or the whole journal when not even its
	// header verifies (ValidLen 0).
	ValidLen int64
	Tail     []byte
	// Damage says why the journal cannot be folded: it is missing, its
	// header does not verify, or its first record is not a begin record.
	// The fields below are empty then.
	Damage error

	Begin *JournalRecord
	// Scores holds every journaled selection score by step.
	Scores map[int]float64
	End    *JournalRecord
	// Frontier is the last step with a score or select record, -1 if none.
	Frontier int

	committed []*JournalRecord
}

// Committed returns each committed step's select record in ascending step
// order; a later record for a step supersedes an earlier one (Resume
// recommits a damaged step).
func (l *RunLog) Committed() []*JournalRecord { return l.committed }

// ReadRunLog reads dir's listing and journal and folds the journal's valid
// prefix. It is the only reader of the journal: every check of its bytes
// happens here and in ParseJournal. The error is reserved for I/O failing;
// a missing or damaged journal is reported in RunLog.Damage.
func ReadRunLog(dir string) (*RunLog, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	log := &RunLog{Scores: map[int]float64{}, Frontier: -1}
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && name != JournalName && name != ManifestName {
			log.Files = append(log.Files, name)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, JournalName))
	if errors.Is(err, fs.ErrNotExist) {
		log.Damage = fmt.Errorf("insitu: no journal: %w", err)
		return log, nil
	}
	if err != nil {
		return nil, err
	}
	recs, validLen, err := ParseJournal(data)
	log.ValidLen, log.Tail, log.Damage = validLen, data[validLen:], err
	if err != nil || len(recs) == 0 {
		return log, nil // a damaged header, or a crash before the begin record
	}
	if recs[0].Kind != KindBegin {
		log.Damage = fmt.Errorf("insitu: journal does not open with a begin record (got %q)", recs[0].Kind)
		return log, nil
	}
	log.Begin = &recs[0]
	selects := map[int]*JournalRecord{}
	for i := 1; i < len(recs); i++ {
		switch rec := &recs[i]; rec.Kind {
		case KindScore:
			log.Scores[rec.Step] = rec.Score
			log.Frontier = max(log.Frontier, rec.Step)
		case KindSelect:
			selects[rec.Step] = rec
			log.Frontier = max(log.Frontier, rec.Step)
		case KindEnd:
			log.End = rec
		}
	}
	for _, rec := range selects {
		log.committed = append(log.committed, rec)
	}
	slices.SortFunc(log.committed, func(a, b *JournalRecord) int { return a.Step - b.Step })
	return log, nil
}

// ReadArtifact reads one committed artifact of dir and checks it against
// its select record: exact length and whole-file CRC32C. Every read of a
// run's artifacts goes through it, so nothing parses bytes the journal
// does not vouch for.
func ReadArtifact(dir string, jf JournalFile) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, jf.Path))
	if err != nil {
		return nil, err
	}
	if n := int64(len(data)); n != jf.Bytes {
		cause := io.ErrUnexpectedEOF
		if n > jf.Bytes {
			cause = store.ErrChecksum
		}
		return nil, fmt.Errorf("insitu: %s is %d bytes, journal records %d: %w", jf.Path, n, jf.Bytes, cause)
	}
	if store.CRC32C(data) != jf.CRC {
		return nil, fmt.Errorf("insitu: %s: %w", jf.Path, store.ErrChecksum)
	}
	return data, nil
}

// beginRecord captures the config fingerprint the journal opens with.
func beginRecord(cfg Config) *JournalRecord {
	return &JournalRecord{
		Kind:      KindBegin,
		Workload:  cfg.Sim.Name(),
		Method:    cfg.Method.String(),
		Vars:      cfg.Sim.Vars(),
		Steps:     cfg.Steps,
		Select:    cfg.Select,
		Bins:      cfg.Bins,
		Codec:     cfg.Codec.String(),
		Metric:    cfg.Metric.String(),
		SamplePct: cfg.SamplePct,
		Seed:      cfg.Seed,
	}
}

// matchesConfig checks a begin record against a resume config: everything
// that shapes the deterministic replay — every field beginRecord writes —
// must agree, or continuing would splice two different runs into one
// directory.
func (r *JournalRecord) matchesConfig(cfg Config) error {
	got, err := json.Marshal(r)
	if err != nil {
		return err
	}
	want, err := json.Marshal(beginRecord(cfg))
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("insitu: resume config mismatch: the journal begins %s, the config gives %s", got, want)
	}
	return nil
}
