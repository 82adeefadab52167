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
	"insitubits/internal/codec"
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
	// Must-refuse seeds: the retired layouts — the v1 fixtures, a v2 file
	// and a v3 file carrying a Dense bin — and two v3 files of three
	// elements whose second bin, one WAH literal, sets bit 5 (past the
	// length, which no reader may accept) or bit 1 (held by the first bin
	// too, an element in two bins, which the door refuses).
	three := buildIndexF(f, 3, 2)
	literal := func(word uint32) []byte {
		return handFile(three, 3, func(b int) (byte, []byte) {
			if b == 0 {
				return byte(three.Codec(0)), codec.Payload(three.Bitmap(0))
			}
			return byte(codec.WAH), binary.LittleEndian.AppendUint32(nil, word)
		})
	}
	refuse := map[string]bool{}
	for _, seed := range [][]byte{
		readFixture(f, "v1.isbm"),
		readFixture(f, "v1-three.isbm"),
		LegacyDenseFile(LegacyDenseIndex(f), 2),
		LegacyDenseFile(LegacyDenseIndex(f), 3),
		literal(1 << 5),
		literal(1 << 1),
	} {
		refuse[string(seed)] = true
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		y, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		if refuse[string(data)] {
			t.Fatal("accepted a must-refuse seed")
		}
		if binary.LittleEndian.Uint32(data[4:8]) != version {
			t.Fatalf("accepted a file of version %d", binary.LittleEndian.Uint32(data[4:8]))
		}
		if y.Bins() == 0 {
			t.Fatal("parsed index with zero bins")
		}
		// What costs O(encoded size) holds for every accepted file: each
		// bin's count is its histogram entry, and the histogram sums to N.
		total := 0
		for b := 0; b < y.Bins(); b++ {
			if c := y.Bitmap(b).Count(); c != y.Count(b) {
				t.Fatalf("bin %d: Count %d, histogram %d", b, c, y.Count(b))
			}
			total += y.Count(b)
		}
		if total != y.N() {
			t.Fatalf("the histogram sums to %d of %d elements", total, y.N())
		}
		// A file of a few dozen bytes may declare up to 2³²−1 elements, so
		// the element-wise walks run on the smaller ones only.
		if y.N() > 1<<16 {
			return
		}
		for b := 0; b < y.Bins(); b++ {
			n := 0
			y.Bitmap(b).Iterate(func(p int) bool {
				if p >= y.N() {
					t.Fatalf("bin %d has bit %d set past %d elements", b, p, y.N())
				}
				n++
				return true
			})
			if n != y.Count(b) {
				t.Fatalf("bin %d: histogram %d, Iterate visits %d", b, y.Count(b), n)
			}
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
	// Must refuse: the same array without its checksum footer.
	bare := footerless([]float64{1, 2, 3})
	f.Add(bare)
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := ReadRaw(bytes.NewReader(data)); err == nil && bytes.Equal(data, bare) {
			t.Fatal("accepted a footer-less array")
		}
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
// v1-three.isbm is buildIndexF(f, 3, 2). Nothing writes v1 any more, and
// the reader must refuse it.
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
