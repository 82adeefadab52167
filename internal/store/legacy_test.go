package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
	"insitubits/internal/index"
)

// Retired layouts: the v1 and v2 index containers and the Dense codec
// (tag 3). Nothing writes them and ReadIndex refuses them. The files here
// are built by hand from docs/FORMATS.md, or are the v1 fixtures in
// testdata/, so the refusal is held to the bytes those layouts had.

// handFile frames x's header by hand under the given version, then each
// bin as the record bin returns; under version 3 each record is followed
// by its CRC32C and the file by the "ISCK" footer, as WriteIndex does.
func handFile(x *index.Index, version uint32, bin func(b int) (tag byte, payload []byte)) []byte {
	le := binary.LittleEndian
	out := le.AppendUint32([]byte("ISBM"), version)
	out = le.AppendUint64(out, uint64(x.N()))
	out = le.AppendUint32(out, uint32(x.Bins()))
	for _, e := range binning.Edges(x.Mapper()) {
		out = le.AppendUint64(out, math.Float64bits(e))
	}
	for b := 0; b < x.Bins(); b++ {
		tag, payload := bin(b)
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

// LegacyDenseIndex is an index with what the Dense-era files held: one bin
// with 70 % of the elements, which the retired policy stored as Dense, the
// others under the adaptive policy's WAH and BBC.
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

// LegacyDenseFile is x as a version-2 or -3 file of that time: every bin
// holding at least half the elements carries tag 3 and one u32 per 31-bit
// segment (bit 31 clear), the others their own codec.
func LegacyDenseFile(x *index.Index, version uint32) []byte {
	return handFile(x, version, func(b int) (byte, []byte) {
		if 2*x.Count(b) < x.N() {
			return byte(x.Codec(b)), codec.Payload(x.Bitmap(b))
		}
		bm := x.Bitmap(b)
		payload := make([]byte, 4*((bm.Len()+bitvec.SegmentBits-1)/bitvec.SegmentBits))
		bm.Iterate(func(i int) bool {
			j := i % bitvec.SegmentBits
			payload[4*(i/bitvec.SegmentBits)+j/8] |= 1 << uint(j%8)
			return true
		})
		return byte(codec.Dense), payload
	})
}

// countingReader counts the bytes a reader pulled from r.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// Every retired container — the v1 fixtures, a v2 file, and a v3 file
// whose version field reads 1 or 2 — is refused from its header, after
// reading exactly its 8 bytes of magic and version.
func TestRetiredLayoutsRefusedFromHeader(t *testing.T) {
	var v3 bytes.Buffer
	if _, err := WriteIndex(&v3, LegacyDenseIndex(t)); err != nil {
		t.Fatal(err)
	}
	relabel := func(ver uint32) []byte {
		d := bytes.Clone(v3.Bytes())
		binary.LittleEndian.PutUint32(d[4:], ver)
		return d
	}
	for _, c := range []struct {
		name string
		data []byte
		ver  int
	}{
		{"testdata/v1.isbm", readFixture(t, "v1.isbm"), 1},
		{"testdata/v1-three.isbm", readFixture(t, "v1-three.isbm"), 1},
		{"v2 with Dense bins", LegacyDenseFile(LegacyDenseIndex(t), 2), 2},
		{"v3 relabelled 1", relabel(1), 1},
		{"v3 relabelled 2", relabel(2), 2},
	} {
		r := &countingReader{r: bytes.NewReader(c.data)}
		x, err := ReadIndex(r)
		want := fmt.Sprintf("store: unsupported index version %d", c.ver)
		if err == nil || err.Error() != want {
			t.Errorf("%s: read %v, %v; want %q", c.name, x, err, want)
		}
		if r.n != 8 {
			t.Errorf("%s: refused after reading %d bytes, want 8", c.name, r.n)
		}
	}
}

// A v3 file with a Dense bin, checksums intact, is refused at that bin with
// the codec's error naming the retired tag.
func TestRefusesLegacyDenseBins(t *testing.T) {
	x := LegacyDenseIndex(t)
	dense := -1
	for b := 0; b < x.Bins() && dense < 0; b++ {
		if 2*x.Count(b) >= x.N() {
			dense = b
		}
	}
	if dense < 0 {
		t.Fatal("the index holds no bin the retired policy made Dense")
	}
	_, err := ReadIndex(bytes.NewReader(LegacyDenseFile(x, 3)))
	want := fmt.Sprintf("store: bin %d: codec: tag 3 (dense) is retired", dense)
	if err == nil || err.Error() != want {
		t.Fatalf("v3 file with a Dense bin read with error %v, want %q", err, want)
	}
}

// A raw array without the "ISCK" footer — the layout before checksums — is
// refused, its last element spelling the footer magic or not.
func TestReadRawRefusesFooterless(t *testing.T) {
	for _, last := range []float64{3, math.Float64frombits(binary.LittleEndian.Uint64([]byte("ISCK\x00\x00\x00\x00")))} {
		file := footerless([]float64{1, 2, last})
		if data, err := ReadRaw(bytes.NewReader(file)); err == nil || !strings.Contains(err.Error(), "footer") {
			t.Errorf("footer-less array ending %v read as %v, %v", last, data, err)
		}
	}
}

// footerless is data in the raw layout without its checksum footer.
func footerless(data []float64) []byte {
	out := binary.LittleEndian.AppendUint64([]byte("ISRW"), uint64(len(data)))
	for _, v := range data {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}
