package insitu

import (
	"path/filepath"
	"testing"
)

// FuzzParseJournal throws arbitrary bytes at the journal parser. The
// contract under fuzzing: never panic, never allocate from a lying length
// field (the frame cap bounds it), and on success return a valid prefix —
// validLen within [header, len(data)] — whose re-parse is a fixed point
// (same records, same length). That last property is what Resume's
// truncate-then-append depends on. Every file a returned record names is a
// plain name: no reader resolves a journaled path outside the directory.
func FuzzParseJournal(f *testing.F) {
	// Seed: a real journal shape — header plus begin/score/select/end.
	buf := journalHeader()
	for _, rec := range []*JournalRecord{
		{Kind: KindBegin, Workload: "tri", Method: "bitmaps", Vars: []string{"a", "b"}, Steps: 4, Select: 2, Bins: 4, Codec: "auto", Metric: "cond-entropy"},
		{Kind: KindScore, Step: 1, Score: 0.25},
		{Kind: KindSelect, Step: 1, Files: []JournalFile{{Var: "a", Path: "step0001_a.isbm", Bytes: 99, CRC: 7}}},
		{Kind: KindEnd, Selected: []int{0, 1}},
	} {
		frame, err := encodeFrame(rec)
		if err != nil {
			f.Fatal(err)
		}
		buf = append(buf, frame...)
	}
	f.Add(buf)
	f.Add(buf[:len(buf)-3]) // torn tail
	f.Add(journalHeader())
	f.Add([]byte("ISBJ"))
	f.Add([]byte{})
	escaping, err := encodeFrame(&JournalRecord{Kind: KindSelect, Step: 2,
		Files: []JournalFile{{Var: "a", Path: "../outside.bin", Bytes: 999}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(buf[:len(buf):len(buf)], escaping...))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validLen, err := ParseJournal(data)
		if err != nil {
			return // short or bad header: nothing durable, fine
		}
		if validLen < journalHeaderLen || validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside [%d, %d]", validLen, journalHeaderLen, len(data))
		}
		recs2, validLen2, err2 := ParseJournal(data[:validLen])
		if err2 != nil {
			t.Fatalf("valid prefix does not re-parse: %v", err2)
		}
		if validLen2 != validLen || len(recs2) != len(recs) {
			t.Fatalf("re-parse not a fixed point: %d/%d records, %d/%d bytes",
				len(recs2), len(recs), validLen2, validLen)
		}
		for _, rec := range recs {
			for _, jf := range rec.Files {
				p := filepath.Join("run", jf.Path)
				if filepath.Dir(p) != "run" || jf.Path == JournalName || jf.Path == ManifestName {
					t.Fatalf("%s record names %q, not a plain name", rec.Kind, jf.Path)
				}
			}
		}
	})
}
