// Package qlog is the workload capture plane: one checksummed,
// schema-versioned record per query entry point, appended to a plain-text
// log that replays deterministically (internal/replay) and summarizes into
// workload statistics (Analyze). The format follows the run journal's
// durability conventions — every record carries a CRC32C over its payload,
// and a torn or corrupt tail is quarantined by length, never parsed past.
//
// File layout (docs/FORMATS.md "Workload log"):
//
//	isqlog 1\n                    header: magic, space, schema version
//	crc32c-hex8 SP json \n        one record per line
//
// The 8-hex-digit CRC32C (Castagnoli, lowercase) covers exactly the JSON
// payload bytes between the separator space and the terminating newline.
// Lines are self-contained, so logs concatenate, tail cleanly, and survive
// a kill mid-append with at most the torn final line lost.
package qlog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"os"
	"strconv"
	"strings"

	"insitubits/internal/bitvec"
	"insitubits/internal/store"
)

// Magic and Version identify the log format; the header line is
// "isqlog 1\n". Bumping Version is a schema change: readers refuse
// versions they do not know rather than guessing at fields.
const (
	Magic   = "isqlog"
	Version = 1
)

// Record is one captured query. Op names the entry point using the query
// package's operator names ("bits", "count", "sum", "mean", "quantile",
// "minmax", "correlation", "sum-masked", "masked-sum"; logs written before
// in-situ selection stopped being captured also hold non-replayable
// "selection.dissimilarity" records). Subset parameters are recorded
// verbatim so the query is re-executable; Words/Bins/Rows come from the
// ANALYZE cost accounting of the captured execution; Result is the
// canonical result digest replay byte-compares against.
type Record struct {
	// Schema is the record's format version (Version at capture time).
	Schema int `json:"v"`
	// Seq is the writer-assigned sequence number, 1-based.
	Seq uint64 `json:"seq"`
	// UnixNs is the capture wall-clock time (replay pacing uses deltas).
	UnixNs int64 `json:"unix_ns"`
	// Op is the query entry point.
	Op string `json:"op"`
	// Detail is the human-oriented parameter description from the profile.
	Detail string `json:"detail,omitempty"`
	// N is the element count of the index the query ran against.
	N int `json:"n,omitempty"`

	// Subset parameters (first operand).
	ValueLo   float64 `json:"value_lo,omitempty"`
	ValueHi   float64 `json:"value_hi,omitempty"`
	SpatialLo int     `json:"spatial_lo,omitempty"`
	SpatialHi int     `json:"spatial_hi,omitempty"`
	// Q is the quantile argument (op == "quantile").
	Q float64 `json:"q,omitempty"`

	// Second-operand subset (op == "correlation").
	Correlated bool    `json:"correlated,omitempty"`
	BValueLo   float64 `json:"b_value_lo,omitempty"`
	BValueHi   float64 `json:"b_value_hi,omitempty"`
	BSpatialLo int     `json:"b_spatial_lo,omitempty"`
	BSpatialHi int     `json:"b_spatial_hi,omitempty"`

	// Gen and GenB are the index generations the query read.
	Gen  uint64 `json:"gen,omitempty"`
	GenB uint64 `json:"gen_b,omitempty"`
	// PlanDigest fingerprints the executable plan (op, parameters, optimized
	// IR shape) — joinable against slow-query log records. (Logs written
	// while a planner switch existed also carry a "planner" key; the reader
	// ignores it, as it ignores any key it does not know.)
	PlanDigest string `json:"plan,omitempty"`
	// Cache is the bitmap cache's verdict: "hit" when any operator was
	// answered from the cache, "miss" when the cache was consulted without
	// a hit, "" when no cache was in play.
	Cache string `json:"cache,omitempty"`

	// Measured execution: bins touched, encoded words scanned, output
	// cardinality, wall time.
	Bins      int   `json:"bins,omitempty"`
	Words     int64 `json:"words,omitempty"`
	Rows      int64 `json:"rows,omitempty"`
	ElapsedNs int64 `json:"elapsed_ns"`

	// Result is the canonical result digest (DigestBitmap / DigestInt /
	// DigestFloats), empty when the query failed.
	Result string `json:"result,omitempty"`
	// Source names the capture surface when it is not the in-process
	// default: "serve" for records captured on insitu-serve's request
	// path (Writer.SetSource). Replay ignores it — a server-captured log
	// re-executes exactly like a local one.
	Source string `json:"source,omitempty"`
	// TraceID cross-references the identity trace, when one was recorded.
	// On serving-path records this is the client's propagated trace ID.
	TraceID string `json:"trace_id,omitempty"`
	// Err records the query error, if it failed.
	Err string `json:"error,omitempty"`
}

// Replayable reports whether a record can be re-executed from its recorded
// parameters alone: the masked entry points carry a caller-built bitmap
// that is not captured, and ops that are not entry points (the
// "selection.dissimilarity" records of older logs) have no request to
// rebuild.
func (r *Record) Replayable() bool {
	if r.Err != "" {
		return false
	}
	switch r.Op {
	case "bits", "count", "sum", "mean", "quantile", "minmax", "correlation":
		return true
	}
	return false
}

// Subset reports the record's first-operand subset parameters.
func (r *Record) Subset() (valueLo, valueHi float64, spatialLo, spatialHi int) {
	return r.ValueLo, r.ValueHi, r.SpatialLo, r.SpatialHi
}

// encodeRecord renders one record line: crc32c-hex8, space, JSON, newline.
func encodeRecord(r *Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x ", store.CRC32C(payload))
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// header renders the log header line.
func header() []byte { return []byte(fmt.Sprintf("%s %d\n", Magic, Version)) }

// ParseLog decodes workload-log bytes. Like the run journal's parser, it
// returns every record of the valid prefix plus the prefix's byte length;
// a torn or corrupt tail is not an error — it is what a kill mid-append
// leaves — but bytes past validLen must not be replayed. The header line
// must equal header() byte for byte: a damaged header or an unknown
// version is an error.
func ParseLog(data []byte) (recs []Record, validLen int64, err error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, 0, fmt.Errorf("qlog: missing header line")
	}
	if !bytes.Equal(data[:nl+1], header()) {
		line := string(data[:nl])
		v, ok := strings.CutPrefix(line, Magic+" ")
		if ver, err := strconv.Atoi(v); ok && err == nil && strconv.Itoa(ver) == v {
			return nil, 0, fmt.Errorf("qlog: unsupported version %d", ver)
		}
		return nil, 0, fmt.Errorf("qlog: bad header %q", line)
	}
	pos := int64(nl + 1)
	for {
		rest := data[pos:]
		if len(rest) == 0 {
			return recs, pos, nil
		}
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return recs, pos, nil // torn tail: no terminating newline
		}
		line := rest[:nl]
		if len(line) < 10 || line[8] != ' ' {
			return recs, pos, nil
		}
		want, perr := strconv.ParseUint(string(line[:8]), 16, 32)
		if perr != nil {
			return recs, pos, nil
		}
		payload := line[9:]
		if store.CRC32C(payload) != uint32(want) {
			return recs, pos, nil
		}
		var rec Record
		if json.Unmarshal(payload, &rec) != nil || rec.Op == "" {
			return recs, pos, nil
		}
		recs = append(recs, rec)
		pos += int64(nl) + 1
	}
}

// ReadLog loads and parses a workload log from disk.
func ReadLog(path string) (recs []Record, validLen int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return ParseLog(data)
}

// ---------------------------------------------------------------------------
// Result digests. All digests are 8-hex-digit CRC32C strings over a
// canonical byte encoding, so a digest computed at capture time compares
// byte-for-byte against one computed at replay time — across codecs and
// cache on/off.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DigestString fingerprints an arbitrary string (plan digests).
func DigestString(s string) string {
	return fmt.Sprintf("%08x", crc32.Checksum([]byte(s), castagnoli))
}

// DigestInt fingerprints one integer result (Count).
func DigestInt(v int) string {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
	return fmt.Sprintf("%08x", crc32.Checksum(buf[:], castagnoli))
}

// DigestFloats fingerprints a float sequence bit-exactly (aggregates,
// correlation metrics, selection scores). Order matters.
func DigestFloats(vs ...float64) string {
	h := crc32.New(castagnoli)
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:]) //nolint:errcheck // hash.Hash never errors
	}
	return fmt.Sprintf("%08x", h.Sum32())
}

// DigestBitmap fingerprints a bitmap's logical contents independently of
// its encoding, and returns its population count from the same single
// pass. The run stream is canonicalized before hashing: uniform literal
// segments (all-zero, or all-ones over a full segment) become fills,
// adjacent same-bit fills merge, a trailing zero-fill overhanging the
// logical length is truncated, and the final partial segment is masked to
// the valid bits — so the WAH and BBC encodings of equal contents hash
// identically, which is what lets replay byte-compare results across codec
// conversions.
func DigestBitmap(b bitvec.Bitmap) (digest string, count int) {
	const literalMask = 1<<bitvec.SegmentBits - 1
	n := b.Len()
	segs := (n + bitvec.SegmentBits - 1) / bitvec.SegmentBits
	rem := n - (segs-1)*bitvec.SegmentBits // valid bits in the final segment
	h := crc32.New(castagnoli)
	var buf [10]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(n))
	h.Write(buf[:8]) //nolint:errcheck // hash.Hash never errors
	// Pending canonical fill run, merged across emits.
	curBit := uint32(0)
	curN := 0
	flushFill := func() {
		if curN == 0 {
			return
		}
		buf[0] = 'F'
		buf[1] = byte(curBit)
		binary.LittleEndian.PutUint64(buf[2:10], uint64(curN))
		h.Write(buf[:10]) //nolint:errcheck
		curN = 0
	}
	emitFill := func(bit uint32, k int) {
		if curN > 0 && curBit == bit {
			curN += k
			return
		}
		flushFill()
		curBit, curN = bit, k
	}
	emitLiteral := func(word uint32) {
		flushFill()
		buf[0] = 'L'
		binary.LittleEndian.PutUint32(buf[1:5], word)
		h.Write(buf[:5]) //nolint:errcheck
	}
	left := segs
	rd := b.Runs()
	for left > 0 {
		r, ok := rd.NextRun()
		if !ok {
			// Defensive: a short run stream reads as trailing zeros.
			emitFill(0, left)
			left = 0
			break
		}
		if r.N <= 0 {
			continue
		}
		k := r.N
		if k > left {
			k = left // truncate a trailing zero-fill's overhang
		}
		final := k == left
		if r.Fill {
			bit := r.Bit & 1
			if bit == 1 {
				count += k * bitvec.SegmentBits
				if final {
					count -= bitvec.SegmentBits - rem
				}
			}
			emitFill(bit, k)
		} else {
			w := r.Word & literalMask
			if final {
				w &= uint32(1)<<uint(rem) - 1
			}
			count += bits.OnesCount32(w)
			switch {
			case w == 0:
				emitFill(0, 1)
			case w == literalMask:
				emitFill(1, 1)
			default:
				emitLiteral(w)
			}
		}
		left -= k
	}
	flushFill()
	return fmt.Sprintf("%08x", h.Sum32()), count
}
