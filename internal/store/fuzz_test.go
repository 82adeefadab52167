package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/bitvec"
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
	// The same file with the second bin's literal setting bit 1, which the
	// first bin holds: an element in two bins, which the door refuses.
	twice := readFixture(f, "v1-three.isbm")
	binary.LittleEndian.PutUint32(twice[len(twice)-4:], 1<<1)
	f.Add(twice)
	f.Add(readFixture(f, "v1.isbm"))
	f.Fuzz(func(t *testing.T, data []byte) {
		y, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		if y.Bins() == 0 {
			t.Fatal("parsed index with zero bins")
		}
		total := 0
		for b := 0; b < y.Bins(); b++ {
			bm, n := y.Bitmap(b), 0
			bm.Iterate(func(p int) bool {
				if p >= y.N() {
					t.Fatalf("bin %d has bit %d set past %d elements", b, p, y.N())
				}
				n++
				return true
			})
			if n != bm.Count() || n != y.Count(b) {
				t.Fatalf("bin %d: Count %d, histogram %d, Iterate visits %d", b, bm.Count(), y.Count(b), n)
			}
			total += y.Count(b)
		}
		if total != y.N() {
			t.Fatalf("the histogram sums to %d of %d elements", total, y.N())
		}
		one, three := index.DecodeBinIDs(y, 1), index.DecodeBinIDs(y, 3)
		if !slices.Equal(one.U8, three.U8) || !slices.Equal(one.U16, three.U16) {
			t.Fatal("decodes at 1 and 3 workers disagree")
		}
		if y.N() > 4096 {
			return
		}
		// The []bool model: every element in exactly one bin, the one
		// its decoded id names.
		holders := make([]int, y.N())
		for b := 0; b < y.Bins(); b++ {
			for p, set := range bitvec.Bools(y.Bitmap(b)) {
				if set {
					if holders[p]++; one.Bins <= 1<<8 && int(one.U8[p]) != b || one.Bins > 1<<8 && int(one.U16[p]) != b {
						t.Fatalf("element %d is in bin %d, decoded as another", p, b)
					}
				}
			}
		}
		for p, k := range holders {
			if k != 1 {
				t.Fatalf("element %d lies in %d bins", p, k)
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
