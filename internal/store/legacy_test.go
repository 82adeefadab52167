package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
	"insitubits/internal/index"
)

// Files written while the adaptive policy still stored bins at ≥ 50 %
// density as the uncompressed Dense codec (tag 3). They are built here by
// hand from docs/FORMATS.md, so the reader is held to the format rather than
// to a writer that no longer exists.

// LegacyDenseIndex is an index with what those files held: one bin with
// 70 % of the elements, the others under the adaptive policy's WAH and BBC.
// n = 3000 leaves a 24-bit final segment, so a Dense word can carry bits
// past the length.
func LegacyDenseIndex(tb testing.TB) *index.Index {
	tb.Helper()
	data := make([]float64, 3000)
	for i := range data {
		data[i] = 2.5
		if i%10 >= 7 {
			data[i] = float64(i%97) / 10
		}
	}
	m, err := binning.NewUniform(0, 10, 8)
	if err != nil {
		tb.Fatal(err)
	}
	return index.Build(data, m).Recode(codec.Auto)
}

// isLegacyDense reports whether the retired policy stored bin b as Dense.
func isLegacyDense(x *index.Index, b int) bool { return 2*x.Count(b) >= x.N() }

// LegacyDenseFile is x as a version-2 or -3 file of that time: every bin
// the retired policy made Dense carries tag 3 and one u32 per 31-bit segment,
// the others their own codec. mutate, when not nil, edits each Dense payload
// before it is framed and, in v3, checksummed.
func LegacyDenseFile(x *index.Index, version uint32, mutate func([]byte) []byte) []byte {
	le := binary.LittleEndian
	out := le.AppendUint32([]byte("ISBM"), version)
	out = le.AppendUint64(out, uint64(x.N()))
	out = le.AppendUint32(out, uint32(x.Bins()))
	for _, e := range binning.Edges(x.Mapper()) {
		out = le.AppendUint64(out, math.Float64bits(e))
	}
	for b := 0; b < x.Bins(); b++ {
		tag, payload := byte(x.Codec(b)), codec.Payload(x.Bitmap(b))
		if isLegacyDense(x, b) {
			tag, payload = byte(codec.Dense), densePayload(x.Bitmap(b))
			if mutate != nil {
				payload = mutate(payload)
			}
		}
		rec := le.AppendUint32([]byte{tag}, uint32(len(payload)))
		rec = append(rec, payload...)
		out = append(out, rec...)
		if version == 3 {
			out = le.AppendUint32(out, CRC32C(rec))
		}
	}
	if version == 3 {
		crc := CRC32C(out)
		out = le.AppendUint32(append(out, "ISCK"...), crc)
	}
	return out
}

// densePayload is the Dense encoding of bm: bit j of segment s is bit j of
// the s-th little-endian u32, bit 31 clear.
func densePayload(bm bitvec.Bitmap) []byte {
	out := make([]byte, 4*((bm.Len()+bitvec.SegmentBits-1)/bitvec.SegmentBits))
	for i, set := range bitvec.Bools(bm) {
		if set {
			j := i % bitvec.SegmentBits
			out[4*(i/bitvec.SegmentBits)+j/8] |= 1 << uint(j%8)
		}
	}
	return out
}

// A tag-3 bin reads as its WAH twin, in v2 and v3 files alike; a malformed
// Dense payload is an error, never a bitmap.
func TestReadsLegacyDenseBins(t *testing.T) {
	x := LegacyDenseIndex(t)
	for _, version := range []uint32{2, 3} {
		y, err := ReadIndex(bytes.NewReader(LegacyDenseFile(x, version, nil)))
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		dense := 0
		for b := 0; b < x.Bins(); b++ {
			if y.Count(b) != x.Count(b) || !y.Bitmap(b).Equal(x.Bitmap(b)) {
				t.Fatalf("v%d: bin %d read back different bits", version, b)
			}
			if !isLegacyDense(x, b) {
				if y.Codec(b) != x.Codec(b) {
					t.Fatalf("v%d: bin %d read as %v, stored as %v", version, b, y.Codec(b), x.Codec(b))
				}
				continue
			}
			dense++
			twin := bitvec.ToVector(x.Bitmap(b)).RawWords()
			if got, ok := y.Bitmap(b).(*bitvec.Vector); !ok || !slices.Equal(got.RawWords(), twin) {
				t.Fatalf("v%d: Dense bin %d read as %v, want its WAH twin", version, b, y.Bitmap(b))
			}
		}
		if dense == 0 {
			t.Fatal("the index holds no bin the retired policy made Dense")
		}

		for name, mutate := range map[string]func([]byte) []byte{
			"word count":       func(p []byte) []byte { return p[:len(p)-4] },
			"bit 31 set":       func(p []byte) []byte { p[3] |= 0x80; return p },
			"bits past length": func(p []byte) []byte { p[len(p)-1] |= 0x40; return p },
		} {
			if _, err := ReadIndex(bytes.NewReader(LegacyDenseFile(x, version, mutate))); err == nil {
				t.Errorf("v%d: Dense payload with a bad %s accepted", version, name)
			}
		}
	}
}
