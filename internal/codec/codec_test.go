package codec

import (
	"math/rand"
	"slices"
	"testing"

	"insitubits/internal/bitvec"
)

func boolsAtDensity(r *rand.Rand, n int, p float64) []bool {
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = r.Float64() < p
	}
	return bs
}

func TestParseRoundTrip(t *testing.T) {
	for _, id := range []ID{Auto, WAH, BBC} {
		got, err := Parse(id.String())
		if err != nil || got != id {
			t.Fatalf("Parse(%q) = %v, %v", id.String(), got, err)
		}
		if !id.Valid() || id.Concrete() == (id == Auto) {
			t.Fatalf("%v: Valid=%v Concrete=%v", id, id.Valid(), id.Concrete())
		}
	}
	for _, s := range []string{"zstd", "dense"} {
		if _, err := Parse(s); err == nil {
			t.Fatalf("codec %q accepted", s)
		}
	}
	if Dense.Valid() || Dense.Concrete() {
		t.Fatal("the retired Dense tag is settable")
	}
	if id, err := Parse(""); err != nil || id != Auto {
		t.Fatalf("empty codec: %v, %v", id, err)
	}
}

func TestEncodeProducesRequestedCodec(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	v := bitvec.FromBools(boolsAtDensity(r, 1000, 0.3))
	for _, c := range []struct {
		id   ID
		want ID
	}{{WAH, WAH}, {BBC, BBC}} {
		got := Encode(v, c.id)
		if Of(got) != c.want {
			t.Fatalf("Encode(%v) produced %v", c.id, Of(got))
		}
		if !got.Equal(v) {
			t.Fatalf("Encode(%v) changed contents", c.id)
		}
	}
}

// clusteredAtDensity sets about p of n bits in clusters: runs of set bits
// separated by gaps, both of random length, the shape a smooth field's bin
// takes along the grid.
func clusteredAtDensity(r *rand.Rand, n int, p float64) []bool {
	bs := make([]bool, n)
	for at := 0; at < n; {
		span := 1 + r.Intn(400)
		if r.Float64() < p {
			for end := min(n, at+span); at < end; at++ {
				bs[at] = true
			}
		} else {
			at += span
		}
	}
	return bs
}

// The policy, as a property: Auto's encoding is always WAH or BBC, never
// larger than the smaller of the two, and equal to the input's bits. Ties go
// to WAH.
func TestAutoPolicy(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const n = 10000
	for _, p := range []float64{0.001, 0.1, 0.5, 0.9, 1.0} {
		for shape, bs := range map[string][]bool{
			"random":    boolsAtDensity(r, n, p),
			"clustered": clusteredAtDensity(r, n, p),
		} {
			v := bitvec.FromBools(bs)
			got := Encode(v, Auto)
			wah, bbc := v.SizeBytes(), bitvec.BBCFromBitmap(v).SizeBytes()
			switch id := Of(got); {
			case id != WAH && id != BBC:
				t.Fatalf("%s p=%g: Auto chose %v", shape, p, id)
			case got.SizeBytes() > min(wah, bbc):
				t.Fatalf("%s p=%g: Auto kept %v at %d bytes; WAH %d, BBC %d", shape, p, id, got.SizeBytes(), wah, bbc)
			case wah <= bbc && id != WAH:
				t.Fatalf("%s p=%g: a tie or a smaller WAH went to %v", shape, p, id)
			case !got.Equal(v):
				t.Fatalf("%s p=%g: Auto changed the bits", shape, p)
			}
		}
	}
}

func TestAutoKeepsSmallerRunLengthCodec(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, p := range []float64{0.001, 0.01, 0.1, 0.4} {
		b := Encode(bitvec.FromBools(boolsAtDensity(r, 20000, p)), Auto)
		w := bitvec.ToVector(b)
		c := bitvec.BBCFromBitmap(b)
		if b.SizeBytes() != min(w.SizeBytes(), c.SizeBytes()) {
			t.Fatalf("density %.3f: Auto kept %v at %d bytes; WAH %d, BBC %d",
				p, Of(b), b.SizeBytes(), w.SizeBytes(), c.SizeBytes())
		}
	}
}

func TestPayloadNewRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, p := range []float64{0, 0.01, 0.5, 1} {
		for _, n := range []int{0, 1, 31, 100, 997} {
			v := bitvec.FromBools(boolsAtDensity(r, n, p))
			for _, id := range []ID{WAH, BBC} {
				enc := Encode(v, id)
				back, err := New(id, Payload(enc), n)
				if err != nil {
					t.Fatalf("n=%d p=%.2f %v: New: %v", n, p, id, err)
				}
				if Of(back) != id || !back.Equal(v) {
					t.Fatalf("n=%d p=%.2f %v: payload round-trip diverged", n, p, id)
				}
			}
		}
	}
}

func TestNewRejectsMalformed(t *testing.T) {
	if _, err := New(WAH, []byte{1, 2, 3}, 8); err == nil {
		t.Fatal("ragged WAH payload accepted")
	}
	if _, err := New(BBC, []byte{0x80}, 8); err == nil {
		t.Fatal("truncated BBC payload accepted")
	}
	if _, err := New(ID(9), nil, 0); err == nil {
		t.Fatal("unknown codec tag accepted")
	}
}

// densePayload writes bs the way the retired Dense codec stored it: one
// little-endian u32 per 31-bit segment, bits 0–30 the segment, bit 31 clear.
func densePayload(bs []bool) []byte {
	out := make([]byte, 4*((len(bs)+bitvec.SegmentBits-1)/bitvec.SegmentBits))
	for i, b := range bs {
		if b {
			j := i % bitvec.SegmentBits
			out[4*(i/bitvec.SegmentBits)+j/8] |= 1 << uint(j%8)
		}
	}
	return out
}

// Tag 3 is read-only: a Dense payload decodes to the WAH vector of the same
// bits, under the three checks the Dense reader made.
func TestNewReadsLegacyDense(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, p := range []float64{0, 0.01, 0.6, 1} {
		for _, n := range []int{0, 1, 30, 31, 32, 62, 100, 997} {
			bs := boolsAtDensity(r, n, p)
			v := bitvec.FromBools(bs)
			back, err := New(Dense, densePayload(bs), n)
			if err != nil {
				t.Fatalf("n=%d p=%.2f: New(Dense): %v", n, p, err)
			}
			if Of(back) != WAH || !slices.Equal(back.(*bitvec.Vector).RawWords(), v.RawWords()) {
				t.Fatalf("n=%d p=%.2f: Dense payload read as %v %v, want WAH %v", n, p, Of(back), back, v)
			}
		}
	}
	for name, c := range map[string]struct {
		payload []byte
		nbits   int
	}{
		"word count":       {make([]byte, 8), 31},
		"short":            {make([]byte, 4), 32},
		"bit 31 set":       {[]byte{0, 0, 0, 0x80}, 31},
		"bit past length":  {[]byte{0, 0x04, 0, 0}, 10},
		"bit 30 of a tail": {[]byte{0, 0, 0, 0, 0, 0, 0, 0x40}, 33},
		"ragged":           {make([]byte, 5), 31},
		"negative length":  {nil, -1},
	} {
		if _, err := New(Dense, c.payload, c.nbits); err == nil {
			t.Fatalf("%s: malformed Dense payload accepted", name)
		}
	}
}
