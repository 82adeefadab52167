package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
)

// TestV2PreservesCodecs writes an index whose bins carry different codecs
// and checks each bin comes back under the same encoding with the same bits.
func TestV2PreservesCodecs(t *testing.T) {
	for _, id := range []codec.ID{codec.Auto, codec.WAH, codec.BBC} {
		x := buildIndex(t, 21, 3000, 16).Recode(id)
		var buf bytes.Buffer
		written, err := WriteIndex(&buf, x)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		if written != IndexSize(x) {
			t.Fatalf("%v: IndexSize=%d, wrote %d", id, IndexSize(x), written)
		}
		y, err := ReadIndex(&buf)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		for b := 0; b < x.Bins(); b++ {
			if x.Codec(b) != y.Codec(b) {
				t.Fatalf("%v: bin %d codec changed %v -> %v", id, b, x.Codec(b), y.Codec(b))
			}
			if !x.Bitmap(b).Equal(y.Bitmap(b)) {
				t.Fatalf("%v: bin %d bits changed", id, b)
			}
		}
		// Ops on the reloaded index must behave: the OR of every occupied
		// bin, on the side ChooseSide picks, selects every element.
		var occupied []int
		for b := 0; b < y.Bins(); b++ {
			if y.Count(b) > 0 {
				occupied = append(occupied, b)
			}
		}
		flat := make([]uint64, bitvec.FlatWords(y.N()))
		y.ChooseSide(occupied).Or(flat, 0, len(flat), nil)
		if got := bitvec.FromFlat(flat, y.N()).Count(); got != y.N() {
			t.Fatalf("%v: the OR of every bin counts %d of %d after reload", id, got, y.N())
		}
	}
}

// TestV1Compat checks the legacy all-WAH layout still loads, bit-for-bit,
// from a file the retired v1 writer made of an index recoded under auto.
func TestV1Compat(t *testing.T) {
	x := buildIndex(t, 22, 2000, 12).Recode(codec.Auto)
	data := readFixture(t, "v1.isbm")
	// The v1 header literally declares version 1.
	if ver := binary.LittleEndian.Uint32(data[4:8]); ver != 1 {
		t.Fatalf("fixture declares version %d", ver)
	}
	y, err := ReadIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < x.Bins(); b++ {
		if y.Codec(b) != codec.WAH {
			t.Fatalf("bin %d loaded from v1 as %v, want WAH", b, y.Codec(b))
		}
		if !x.Bitmap(b).Equal(y.Bitmap(b)) {
			t.Fatalf("bin %d differs after v1 round trip", b)
		}
	}
}

// v2File builds a small valid v2 index file for the corruption table to
// mutate, along with the offset of the first bin's codec tag.
func v2File(t *testing.T) ([]byte, int) {
	t.Helper()
	x := buildIndex(t, 23, 400, 4)
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, x); err != nil {
		t.Fatal(err)
	}
	// magic(4) + version(4) + n(8) + bins(4) + edges((bins+1)*8).
	firstTag := 4 + 4 + 8 + 4 + 8*(x.Bins()+1)
	return buf.Bytes(), firstTag
}

// TestReadIndexCorruptionTable mutates specific header and bin fields of a
// valid v2 file; every mutation must be rejected with an error, not a panic
// or a silently wrong index.
func TestReadIndexCorruptionTable(t *testing.T) {
	base, firstTag := v2File(t)
	mutate := func(f func(d []byte) []byte) []byte {
		return f(append([]byte(nil), base...))
	}
	cases := map[string][]byte{
		"bad magic": mutate(func(d []byte) []byte {
			d[0] = 'X'
			return d
		}),
		"unsupported version": mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[4:], 4)
			return d
		}),
		"zero bins": mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[16:], 0)
			return d
		}),
		"bin-count bomb": mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[16:], 1<<21)
			return d
		}),
		"NaN edge": mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[20:], math.Float64bits(math.NaN()))
			return d
		}),
		"+Inf edge": mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[28:], math.Float64bits(math.Inf(1)))
			return d
		}),
		"non-increasing edges": mutate(func(d []byte) []byte {
			// Swap the first two edges so the sequence decreases.
			a := binary.LittleEndian.Uint64(d[20:])
			b := binary.LittleEndian.Uint64(d[28:])
			binary.LittleEndian.PutUint64(d[20:], b)
			binary.LittleEndian.PutUint64(d[28:], a)
			return d
		}),
		"unknown codec tag": mutate(func(d []byte) []byte {
			d[firstTag] = 9
			return d
		}),
		"auto codec tag": mutate(func(d []byte) []byte {
			d[firstTag] = byte(codec.Auto)
			return d
		}),
		"payload bomb": mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[firstTag+1:], 0xFFFFFFFF)
			return d
		}),
		"truncated header":  base[:10],
		"truncated edges":   base[:30],
		"truncated payload": base[:len(base)-3],
	}
	for name, data := range cases {
		if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestValidEdges exercises the edge validator directly.
func TestValidEdges(t *testing.T) {
	good := [][]float64{
		{0, 1},
		{-5, -1, 0, 2.5, 1e18},
	}
	for _, e := range good {
		if err := validEdges(e); err != nil {
			t.Errorf("valid edges %v rejected: %v", e, err)
		}
	}
	bad := [][]float64{
		{0, 0},
		{1, 0},
		{0, math.NaN(), 2},
		{0, 1, math.Inf(1)},
		{math.Inf(-1), 0},
	}
	for _, e := range bad {
		if err := validEdges(e); err == nil {
			t.Errorf("invalid edges %v accepted", e)
		}
	}
}

func TestRecodeChangesOnDiskSize(t *testing.T) {
	x := buildIndex(t, 25, 50000, 32)
	wah := IndexSize(x.Recode(codec.WAH))
	bbc := IndexSize(x.Recode(codec.BBC))
	auto := IndexSize(x.Recode(codec.Auto))
	if wah == bbc {
		t.Fatalf("recoding WAH to BBC left the file at %d bytes", wah)
	}
	if auto > wah || auto > bbc {
		t.Fatalf("auto (%d) larger than wah (%d) or bbc (%d): it keeps each bin's smaller encoding", auto, wah, bbc)
	}
}
