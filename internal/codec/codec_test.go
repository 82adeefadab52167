package codec

import (
	"math/rand"
	"strings"
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

// The retired Dense tag is refused whatever its payload — a well-formed
// Dense encoding included — and the error names the tag.
func TestNewRefusesRetiredDense(t *testing.T) {
	for _, c := range []struct {
		payload []byte
		nbits   int
	}{
		{nil, 0},
		{[]byte{0xff, 0xff, 0xff, 0x7f}, 31},
		{make([]byte, 8), 62},
	} {
		bm, err := New(Dense, c.payload, c.nbits)
		if err == nil || bm != nil {
			t.Fatalf("%d-bit Dense payload read as %v", c.nbits, bm)
		}
		if !strings.Contains(err.Error(), "tag 3 (dense) is retired") {
			t.Fatalf("Dense refused with %q, want it to name the retired tag", err)
		}
	}
}
