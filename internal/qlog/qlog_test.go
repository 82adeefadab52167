package qlog

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
)

func TestLogRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "workload.isql")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Op: "count", ValueLo: 1, ValueHi: 3, N: 100, Cache: "miss",
			Bins: 2, Words: 42, Rows: 17, ElapsedNs: 1234, Result: DigestInt(17)},
		{Op: "bits", SpatialLo: 10, SpatialHi: 90, ElapsedNs: 99, TraceID: "abc123"},
		{Op: "quantile", Q: 0.5, Err: "boom", ElapsedNs: 5},
		{Op: "correlation", Correlated: true, BValueLo: -1, BValueHi: 1, GenB: 7, ElapsedNs: 8},
		// Logs written before selection scoring stopped posing as a query
		// hold records like this one; they still read, and never replay.
		{Op: "selection.dissimilarity", Detail: "steps 3~4", Words: 99, Rows: 7,
			ElapsedNs: 42, Result: DigestFloats(0.25)},
	}
	for i := range want {
		rec := want[i]
		w.Append(&rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	h := w.Health()
	if h.Enabled {
		t.Error("closed writer reports enabled")
	}
	if h.Records != int64(len(want)) || h.Dropped != 0 || h.Errors != 0 {
		t.Errorf("health = %+v, want %d records, 0 dropped/errors", h, len(want))
	}

	recs, validLen, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	fi, _ := os.Stat(path)
	if validLen != fi.Size() {
		t.Errorf("validLen = %d, file size %d", validLen, fi.Size())
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i, got := range recs {
		w := want[i]
		if got.Seq != uint64(i+1) || got.Schema != Version || got.UnixNs == 0 {
			t.Errorf("record %d: seq=%d schema=%d unix_ns=%d", i, got.Seq, got.Schema, got.UnixNs)
		}
		got.Seq, got.Schema, got.UnixNs = 0, 0, 0
		if got != w {
			t.Errorf("record %d roundtrip:\n got %+v\nwant %+v", i, got, w)
		}
	}
	if want[2].Replayable() {
		t.Error("errored record reports replayable")
	}
	if !recs[0].Replayable() || !recs[1].Replayable() {
		t.Error("count/bits records should be replayable")
	}
	if recs[4].Replayable() {
		t.Error("selection.dissimilarity record reports replayable")
	}
}

// TestParseLogHeader requires the header line byte for byte: a version
// with trailing bytes, a fraction or a leading zero is a damaged header,
// and a well-formed unknown version is named as such.
func TestParseLogHeader(t *testing.T) {
	for _, tc := range []struct {
		header, wantErr string
	}{
		{"isqlog 1\n", ""},
		{"isqlog 1xyz\n", "bad header"},
		{"isqlog 1.5\n", "bad header"},
		{"isqlog 1 extra\n", "bad header"},
		{"isqlog 01\n", "bad header"},
		{"isqlog  1\n", "bad header"},
		{"isqlog 1\r\n", "bad header"},
		{"isqlog 2\n", "unsupported version 2"},
	} {
		_, validLen, err := ParseLog([]byte(tc.header))
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%q: %v", tc.header, err)
		case tc.wantErr == "" && validLen != int64(len(tc.header)):
			t.Errorf("%q: validLen %d, want %d", tc.header, validLen, len(tc.header))
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%q: err %v, want %q", tc.header, err, tc.wantErr)
		}
	}
}

func TestParseLogTornAndCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "workload.isql")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w.Append(&Record{Op: "count", ValueLo: float64(i)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, fullLen, err := ParseLog(data)
	if err != nil || len(full) != 5 {
		t.Fatalf("full parse: %d records, err %v", len(full), err)
	}

	// Truncate at every byte offset: never an error, records form a prefix,
	// and validLen never exceeds the truncation point.
	for cut := int(fullLen); cut > len(Magic)+2; cut-- {
		recs, validLen, err := ParseLog(data[:cut])
		if err != nil {
			t.Fatalf("cut %d: unexpected error %v", cut, err)
		}
		if validLen > int64(cut) {
			t.Fatalf("cut %d: validLen %d past end", cut, validLen)
		}
		for i, r := range recs {
			if r.ValueLo != float64(i) {
				t.Fatalf("cut %d: record %d out of order", cut, i)
			}
		}
	}

	// A flipped byte mid-log quarantines from that record on.
	corrupt := bytes.Clone(data)
	mid := int(fullLen) / 2
	corrupt[mid] ^= 0x40
	recs, validLen, err := ParseLog(corrupt)
	if err != nil {
		t.Fatalf("corrupt parse: %v", err)
	}
	if len(recs) >= 5 {
		t.Errorf("corrupt parse returned all %d records", len(recs))
	}
	if validLen > int64(mid) {
		t.Errorf("validLen %d past corruption at %d", validLen, mid)
	}

	// Header damage is an error, not a silent empty log.
	if _, _, err := ParseLog([]byte("isqlog 9\nx")); err == nil {
		t.Error("unknown version accepted")
	}
	if _, _, err := ParseLog([]byte("notalog\n")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, _, err := ParseLog([]byte("")); err == nil {
		t.Error("empty data accepted")
	}
}

func TestWriterConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "workload.isql")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w.Append(&Record{Op: "count", ValueLo: float64(g), ValueHi: float64(i)})
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Queue capacity exceeds the total append count, so nothing may drop.
	if h := w.Health(); h.Dropped != 0 || h.Records != workers*per {
		t.Fatalf("health = %+v, want %d records, 0 dropped", h, workers*per)
	}
	recs, _, err := ReadLog(path)
	if err != nil || len(recs) != workers*per {
		t.Fatalf("read %d records, err %v", len(recs), err)
	}
	seen := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
	// Appends after Close drop without panicking.
	w.Append(&Record{Op: "count"})
	if h := w.Health(); h.Dropped != 1 {
		t.Errorf("append after close: dropped = %d, want 1", h.Dropped)
	}
}

func TestDigestBitmapCodecIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		name string
		bits []bool
	}{
		{"empty", nil},
		{"all-zero", make([]bool, 31*4+7)},
		{"all-one", func() []bool {
			b := make([]bool, 31*3)
			for i := range b {
				b[i] = true
			}
			return b
		}()},
		{"partial-tail-ones", func() []bool {
			b := make([]bool, 31*2+5)
			for i := range b {
				b[i] = true
			}
			return b
		}()},
		{"sparse", func() []bool {
			b := make([]bool, 31*100+13)
			for i := 0; i < len(b); i += 97 {
				b[i] = true
			}
			return b
		}()},
		{"dense-random", func() []bool {
			b := make([]bool, 31*50+1)
			for i := range b {
				b[i] = rng.Intn(3) > 0
			}
			return b
		}()},
		{"exact-segments", func() []bool {
			b := make([]bool, 31*8)
			for i := range b {
				b[i] = rng.Intn(2) == 0
			}
			return b
		}()},
	}
	ids := []codec.ID{codec.WAH, codec.BBC}
	for _, tc := range cases {
		base := bitvec.FromBools(tc.bits)
		wantCount := 0
		for _, set := range tc.bits {
			if set {
				wantCount++
			}
		}
		wantDigest, count := DigestBitmap(base)
		if count != wantCount {
			t.Errorf("%s: wah count = %d, want %d", tc.name, count, wantCount)
		}
		for _, id := range ids {
			enc := codec.Encode(base, id)
			d, c := DigestBitmap(enc)
			if d != wantDigest {
				t.Errorf("%s: %v digest %s != wah digest %s", tc.name, id, d, wantDigest)
			}
			if c != wantCount {
				t.Errorf("%s: %v count = %d, want %d", tc.name, id, c, wantCount)
			}
		}
	}
	// Different contents must not collide on these fixtures.
	a, _ := DigestBitmap(bitvec.FromBools([]bool{true, false, true}))
	b, _ := DigestBitmap(bitvec.FromBools([]bool{true, true, false}))
	if a == b {
		t.Error("distinct bitmaps share a digest")
	}
	// Same prefix, different lengths must differ (length is hashed).
	c1, _ := DigestBitmap(bitvec.FromBools(make([]bool, 31)))
	c2, _ := DigestBitmap(bitvec.FromBools(make([]bool, 62)))
	if c1 == c2 {
		t.Error("length not part of the digest")
	}
}

func TestDigestHelpers(t *testing.T) {
	if DigestInt(5) == DigestInt(6) {
		t.Error("DigestInt collision")
	}
	if DigestFloats(1, 2) == DigestFloats(2, 1) {
		t.Error("DigestFloats is order-insensitive")
	}
	if DigestFloats(1.5) != DigestFloats(1.5) {
		t.Error("DigestFloats unstable")
	}
	if DigestString("a|b") == DigestString("a|c") {
		t.Error("DigestString collision")
	}
}

func TestAnalyze(t *testing.T) {
	recs := []Record{
		{Op: "count", ValueLo: 1, ValueHi: 3, N: 100, Rows: 10, Bins: 2, Cache: "miss", ElapsedNs: 100, Words: 40},
		{Op: "count", ValueLo: 1, ValueHi: 3, N: 100, Rows: 10, Bins: 2, Cache: "hit", ElapsedNs: 50, Words: 4},
		{Op: "sum", ValueLo: 1, ValueHi: 3, N: 100, Rows: 10, Bins: 2, ElapsedNs: 70, Words: 40},
		{Op: "bits", SpatialLo: 0, SpatialHi: 50, N: 100, Rows: 50, Bins: 8, ElapsedNs: 30, Words: 80},
		{Op: "quantile", Q: 0.9, Err: "boom", ElapsedNs: 5},
		{Op: "selection.dissimilarity", ElapsedNs: 900, Words: 300},
	}
	s := Analyze(recs, nil)
	if s.Total != 6 || s.Errors != 1 || s.Replayable != 4 {
		t.Errorf("total/errors/replayable = %d/%d/%d", s.Total, s.Errors, s.Replayable)
	}
	if s.ByOp["count"] != 2 || s.ByOp["selection.dissimilarity"] != 1 {
		t.Errorf("by-op = %v", s.ByOp)
	}
	if s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Errorf("cache %d/%d", s.CacheHits, s.CacheMisses)
	}
	// 4 replayable, 3 unique parameter sets (the two counts repeat).
	if s.UniqueQueries != 3 {
		t.Errorf("unique = %d, want 3", s.UniqueQueries)
	}
	if want := 1 - 3.0/4.0; s.RepeatRatio != want {
		t.Errorf("repeat ratio = %g, want %g", s.RepeatRatio, want)
	}
	if s.Arity.Count != 4 || s.Arity.Max != 8 {
		t.Errorf("arity = %+v", s.Arity)
	}
	if len(s.HotRanges) == 0 || s.HotRanges[0].Queries != 3 {
		t.Errorf("hot ranges = %+v", s.HotRanges)
	}
	if len(s.HotBins) != 0 {
		t.Errorf("hot bins without an index = %+v", s.HotBins)
	}
}

func TestInstallActive(t *testing.T) {
	if Active() != nil {
		t.Fatal("writer already installed")
	}
	w, err := Create(filepath.Join(t.TempDir(), "w.isql"))
	if err != nil {
		t.Fatal(err)
	}
	Install(w)
	if Active() != w {
		t.Error("Active != installed writer")
	}
	Install(nil)
	if Active() != nil {
		t.Error("uninstall failed")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var nilW *Writer
	nilW.Append(&Record{Op: "count"}) // must not panic
	if h := nilW.Health(); h.Enabled || h.Path != "" {
		t.Errorf("nil writer health = %+v", h)
	}
	if nilW.Path() != "" {
		t.Error("nil writer path")
	}
}

func TestHealthQueue(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "w.isql"))
	if err != nil {
		t.Fatal(err)
	}
	h := w.Health()
	if !h.Enabled || h.QueueCap != queueCap {
		t.Errorf("health = %+v", h)
	}
	for i := 0; i < 100; i++ {
		w.Append(&Record{Op: "count", ValueLo: float64(i)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.Health(); got.Records != 100 || got.Bytes == 0 {
		t.Errorf("post-close health = %+v", got)
	}
}

func BenchmarkAppend(b *testing.B) {
	w, err := Create(filepath.Join(b.TempDir(), "w.isql"))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := Record{Op: "count", ValueLo: 1, ValueHi: 3, N: 1 << 20, Bins: 4,
		Words: 12345, Rows: 678, ElapsedNs: 91011, Result: "deadbeef"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rec
		r.UnixNs = int64(i + 1)
		w.Append(&r)
	}
}

func ExampleParseLog() {
	recs, _, _ := ParseLog([]byte("isqlog 1\n"))
	fmt.Println(len(recs))
	// Output: 0
}
