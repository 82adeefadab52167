package store

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/index"
	"insitubits/internal/machine"
)

func buildIndex(t *testing.T, seed int64, n, bins int) *index.Index {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	data := make([]float64, n)
	v := 5.0
	for i := range data {
		v += (r.Float64() - 0.5) * 0.1
		data[i] = math.Min(9.99, math.Max(0, v))
	}
	m, err := binning.NewUniform(0, 10, bins)
	if err != nil {
		t.Fatal(err)
	}
	return index.Build(data, m)
}

func TestIndexRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 31, 100, 5000} {
		x := buildIndex(t, int64(n)+1, n, 24)
		var buf bytes.Buffer
		written, err := WriteIndex(&buf, x)
		if err != nil {
			t.Fatal(err)
		}
		if written != int64(buf.Len()) {
			t.Fatalf("n=%d: reported %d bytes, wrote %d", n, written, buf.Len())
		}
		if got := IndexSize(x); got != written {
			t.Fatalf("n=%d: IndexSize=%d, actual=%d", n, got, written)
		}
		y, err := ReadIndex(&buf)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if y.N() != x.N() || y.Bins() != x.Bins() {
			t.Fatalf("n=%d: shape changed: %d/%d vs %d/%d", n, y.N(), y.Bins(), x.N(), x.Bins())
		}
		for b := 0; b < x.Bins(); b++ {
			if !x.Bitmap(b).Equal(y.Bitmap(b)) {
				t.Fatalf("n=%d: bin %d differs after round trip", n, b)
			}
			if x.Count(b) != y.Count(b) {
				t.Fatalf("n=%d: bin %d count differs", n, b)
			}
		}
		// The reconstructed mapper must bin identically.
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 1000; i++ {
			v := r.Float64() * 10
			if x.Mapper().Bin(v) != y.Mapper().Bin(v) {
				t.Fatalf("n=%d: mapper disagrees at %g", n, v)
			}
		}
	}
}

func TestIndexFileOnDisk(t *testing.T) {
	x := buildIndex(t, 7, 4000, 32)
	path := filepath.Join(t.TempDir(), "step042.isbm")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteIndex(f, x); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	y, err := ReadIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	if y.N() != x.N() {
		t.Fatal("disk round trip changed N")
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE1234567890"),
		"truncated": func() []byte {
			x := buildIndex(t, 8, 500, 8)
			var buf bytes.Buffer
			if _, err := WriteIndex(&buf, x); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()[:buf.Len()/2]
		}(),
		"raw file as index": func() []byte {
			var buf bytes.Buffer
			if _, err := WriteRaw(&buf, []float64{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}(),
	}
	for name, data := range cases {
		if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRawRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 1000} {
		data := make([]float64, n)
		for i := range data {
			data[i] = r.NormFloat64()
		}
		var buf bytes.Buffer
		written, err := WriteRaw(&buf, data)
		if err != nil {
			t.Fatal(err)
		}
		if written != RawSize(n) || written != int64(buf.Len()) {
			t.Fatalf("n=%d: size mismatch %d vs %d vs %d", n, written, RawSize(n), buf.Len())
		}
		got, err := ReadRaw(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: read %d elements", n, len(got))
		}
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("n=%d: element %d differs", n, i)
			}
		}
	}
}

func TestReadRawRejectsGarbage(t *testing.T) {
	if _, err := ReadRaw(bytes.NewReader([]byte("ISBMxxxxxxx"))); err == nil {
		t.Error("index magic accepted as raw")
	}
	if _, err := ReadRaw(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestCompressionRatioOnDisk(t *testing.T) {
	// The headline §2.2 claim measured at the file level: index file much
	// smaller than the raw file for smooth data.
	x := buildIndex(t, 10, 200000, 128)
	ratio := float64(IndexSize(x)) / float64(RawSize(x.N()))
	if ratio > 0.30 {
		t.Fatalf("on-disk ratio %.2f exceeds 30%%", ratio)
	}
	t.Logf("on-disk index = %.1f%% of raw", 100*ratio)
}

func TestMachineProfiles(t *testing.T) {
	for _, p := range []machine.Profile{machine.Xeon, machine.MIC, machine.OakleyNode} {
		if p.Cores <= 0 || p.DiskMBps <= 0 || p.NetMBps <= 0 || p.MemoryBytes <= 0 {
			t.Fatalf("profile %q has non-positive fields: %+v", p.Name, p)
		}
	}
	if machine.MIC.Cores <= machine.Xeon.Cores {
		t.Error("MIC should have more cores than Xeon")
	}
	if machine.MIC.DiskMBps >= machine.Xeon.DiskMBps {
		t.Error("MIC should have slower storage than Xeon")
	}
	if machine.MIC.MemoryBytes >= machine.Xeon.MemoryBytes {
		t.Error("MIC should have less memory than Xeon")
	}
}
