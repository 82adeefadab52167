package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
	"insitubits/internal/index"
)

// The readers parse untrusted bytes; none of them may panic or allocate
// absurdly, whatever the input. These tests throw random and
// adversarially-mutated bytes at every parser.
func TestReadersNeverPanic(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	// Seed corpus: valid files of each kind.
	x := buildIndex(t, 1, 500, 8)
	var idxBuf bytes.Buffer
	if _, err := WriteIndex(&idxBuf, x); err != nil {
		t.Fatal(err)
	}
	var rawBuf bytes.Buffer
	if _, err := WriteRaw(&rawBuf, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	ds := NewDataset(2, 2, 2)
	if err := ds.Add("v", make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
	var dsBuf bytes.Buffer
	if _, err := WriteDataset(&dsBuf, ds); err != nil {
		t.Fatal(err)
	}
	corpus := [][]byte{idxBuf.Bytes(), rawBuf.Bytes(), dsBuf.Bytes()}

	tryAll := func(data []byte) {
		// Any of the three parsers must handle any of the inputs.
		_, _ = ReadIndex(bytes.NewReader(data))
		_, _ = ReadRaw(bytes.NewReader(data))
		_, _ = ReadDataset(bytes.NewReader(data))
	}

	// Pure random bytes.
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, r.Intn(400))
		r.Read(data)
		tryAll(data)
	}
	// Mutations of valid files: truncations, bit flips, extensions.
	for trial := 0; trial < 500; trial++ {
		base := corpus[r.Intn(len(corpus))]
		data := append([]byte(nil), base...)
		switch r.Intn(3) {
		case 0:
			data = data[:r.Intn(len(data)+1)]
		case 1:
			if len(data) > 0 {
				data[r.Intn(len(data))] ^= 1 << uint(r.Intn(8))
			}
		default:
			extra := make([]byte, r.Intn(64))
			r.Read(extra)
			data = append(data, extra...)
		}
		tryAll(data)
	}
}

// TestHeaderBombsRejected feeds headers that declare absurd sizes; parsers
// must reject them before allocating.
func TestHeaderBombsRejected(t *testing.T) {
	// Index declaring 2^31 bins.
	bomb := append([]byte("ISBM"),
		3, 0, 0, 0, // version
		0, 0, 0, 0, 0, 0, 0, 0, // n
		0xFF, 0xFF, 0xFF, 0x7F, // bins
	)
	if _, err := ReadIndex(bytes.NewReader(bomb)); err == nil {
		t.Error("bin-count bomb accepted")
	}
	// Index whose one bin declares maxPayload bytes and holds four: refused
	// at the end of the file, having allocated about what the file holds.
	bomb = binary.LittleEndian.AppendUint64(append([]byte("ISBM"), 3, 0, 0, 0), 8)
	bomb = binary.LittleEndian.AppendUint32(bomb, 1)
	bomb = binary.LittleEndian.AppendUint64(bomb, math.Float64bits(0))
	bomb = binary.LittleEndian.AppendUint64(bomb, math.Float64bits(1))
	bomb = binary.LittleEndian.AppendUint32(append(bomb, byte(codec.WAH)), maxPayload)
	bomb = append(bomb, 0, 0, 0, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadIndex(bytes.NewReader(bomb))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("payload bomb accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*payloadChunk {
		t.Errorf("a %d-byte file declaring a %d-byte bin allocated %d bytes", len(bomb), maxPayload, got)
	}
	// Raw file declaring 2^60 elements.
	bomb = append([]byte("ISRW"), 0, 0, 0, 0, 0, 0, 0, 0x10)
	if _, err := ReadRaw(bytes.NewReader(bomb)); err == nil {
		t.Error("element-count bomb accepted")
	}
	// Dataset declaring 2^20 variables.
	bomb = append([]byte("ISDS"),
		1, 0, 0, 0, // version
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // dims
		0, 0, 0x10, 0, // nvars = 2^20
	)
	if _, err := ReadDataset(bytes.NewReader(bomb)); err == nil {
		t.Error("variable-count bomb accepted")
	}
}

// ReadIndex costs what the file holds, not what its header declares: a v3
// file whose one bin is a single one-fill loads, and its read allocates the
// same whether the fill covers 31·2²⁰ elements or sixteen times as many —
// as a WAH fill word and as a BBC one-run. The index door proves the bins
// tile the elements from their runs, and a fill is one run however long.
func TestReadCostIsBoundedByTheFile(t *testing.T) {
	one, err := binning.NewExplicit([]float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	fills := map[string]func(segs, n int) (bitvec.Bitmap, error){
		"wah": func(segs, n int) (bitvec.Bitmap, error) {
			return bitvec.FromRawWords([]uint32{1<<31 | 1<<30 | uint32(segs)}, n)
		},
		"bbc": func(segs, n int) (bitvec.Bitmap, error) { // n is a multiple of 8
			return bitvec.BBCFromRaw(binary.AppendUvarint([]byte{0x81}, uint64(n/8)), n)
		},
	}
	for name, fill := range fills {
		read := func(segs int) uint64 {
			n := segs * bitvec.SegmentBits
			bm, err := fill(segs, n)
			if err != nil {
				t.Fatal(err)
			}
			x, err := index.FromParts(one, []bitvec.Bitmap{bm}, n)
			if err != nil {
				t.Fatal(err)
			}
			var file bytes.Buffer
			if _, err := WriteIndex(&file, x); err != nil {
				t.Fatal(err)
			}
			least := uint64(math.MaxUint64)
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				y, err := ReadIndex(bytes.NewReader(file.Bytes()))
				runtime.ReadMemStats(&after)
				if err != nil || y.N() != n || y.Count(0) != n {
					t.Fatalf("%s, %d segments: loaded %v, %v", name, segs, y, err)
				}
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			return least
		}
		small, large := read(1<<20), read(1<<24)
		if small != large || large > 64<<10 {
			t.Fatalf("%s: reading 31·2²⁰ elements allocates %d bytes, sixteen times as many %d", name, small, large)
		}
	}
}
