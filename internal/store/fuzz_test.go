package store

import (
	"bytes"
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
	f.Fuzz(func(t *testing.T, data []byte) {
		y, err := ReadIndex(bytes.NewReader(data))
		if err == nil && y.Bins() == 0 {
			t.Fatal("parsed index with zero bins")
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
