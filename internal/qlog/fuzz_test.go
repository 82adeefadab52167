package qlog

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzParseLog feeds arbitrary bytes to the workload-log parser, which
// `bitmapctl replay` and `bitmapctl workload` run on untrusted files. It
// must never panic; the valid prefix it reports must lie inside the input,
// parse again to the same records, and start with exactly the header.
func FuzzParseLog(f *testing.F) {
	log := header()
	for _, r := range []*Record{
		{Schema: Version, Seq: 1, Op: "count", ValueLo: 1, ValueHi: 3, N: 100, ElapsedNs: 7, Result: DigestInt(17)},
		{Schema: Version, Seq: 2, Op: "correlation", Correlated: true, BValueHi: 1, ElapsedNs: 8},
		{Schema: Version, Seq: 3, Op: "selection.dissimilarity", Words: 99, ElapsedNs: 42},
	} {
		line, err := encodeRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		log = append(log, line...)
	}
	f.Add(log)
	f.Add(log[:len(log)-5])
	f.Add(header())
	f.Add([]byte("isqlog 2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validLen, err := ParseLog(data)
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside [0, %d]", validLen, len(data))
		}
		if err != nil {
			if recs != nil || validLen != 0 {
				t.Fatalf("error %v with %d records, validLen %d", err, len(recs), validLen)
			}
			return
		}
		if !bytes.HasPrefix(data, header()) {
			t.Fatalf("accepted a log whose header is %q", data[:min(len(data), 16)])
		}
		again, againLen, err := ParseLog(data[:validLen])
		if err != nil || againLen != validLen || !slices.Equal(again, recs) {
			t.Fatalf("valid prefix reparses to %d records, length %d, err %v; want %d, %d",
				len(again), againLen, err, len(recs), validLen)
		}
	})
}
