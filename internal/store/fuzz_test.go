package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/index"
)

// Native fuzz harnesses; `go test` runs the seed corpus, `go test -fuzz`
// explores further. The invariant in all three: parse errors are fine,
// panics and runaway allocations are not.

func FuzzReadIndex(f *testing.F) {
	x := buildIndexF(f, 300, 8)
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, x); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("ISBM"))
	f.Add([]byte{})
	f.Add(LegacyDenseFile(LegacyDenseIndex(f), 3, nil))
	// A v1 file of three elements whose second bin, one literal word, has
	// bit 5 set: a bit past the length, which no reader may accept.
	past := readFixture(f, "v1-three.isbm")
	binary.LittleEndian.PutUint32(past[len(past)-4:], 1<<5)
	f.Add(past)
	f.Add(readFixture(f, "v1.isbm"))
	f.Fuzz(func(t *testing.T, data []byte) {
		y, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		if y.Bins() == 0 {
			t.Fatal("parsed index with zero bins")
		}
		for b := 0; b < y.Bins(); b++ {
			bm, n := y.Bitmap(b), 0
			bm.Iterate(func(p int) bool {
				if p >= y.N() {
					t.Fatalf("bin %d has bit %d set past %d elements", b, p, y.N())
				}
				n++
				return true
			})
			if n != bm.Count() {
				t.Fatalf("bin %d: Count %d, Iterate visits %d", b, bm.Count(), n)
			}
		}
	})
}

func FuzzReadRaw(f *testing.F) {
	var buf bytes.Buffer
	if _, err := WriteRaw(&buf, []float64{1, 2, 3}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("ISRW"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ReadRaw(bytes.NewReader(data))
	})
}

func FuzzReadDataset(f *testing.F) {
	d := NewDataset(2, 2, 1)
	if err := d.Add("v", []float64{1, 2, 3, 4}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteDataset(&buf, d); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("ISDS"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ReadDataset(bytes.NewReader(data))
	})
}

// readFixture returns a file of testdata/. The v1 files there were written
// once by the v1 writer this package had at commit 420eb42, the last to
// have one: v1.isbm is buildIndex(t, 22, 2000, 12) recoded under codec.Auto,
// v1-three.isbm is buildIndexF(f, 3, 2). Nothing writes v1 any more; the
// reader must keep reading it.
func readFixture(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// buildIndexF is buildIndex for fuzz setup (testing.F instead of *testing.T).
func buildIndexF(f *testing.F, n, bins int) *index.Index {
	f.Helper()
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i%97) / 10
	}
	m, err := binning.NewUniform(0, 10, bins)
	if err != nil {
		f.Fatal(err)
	}
	return index.Build(data, m)
}
