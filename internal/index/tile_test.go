package index

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
)

// brokenEdits returns x's bins three ways broken, as a file might hold
// them: a bin emptied (a hole), a bin ORed into its neighbour (an
// overlap), and the first element of bin 0 moved into the last bin (a hole
// and an overlap at equal counts), each with the fault the door must name.
func brokenEdits(x *Index) map[string]struct {
	vecs []bitvec.Bitmap
	want string
} {
	bins := func() []bitvec.Bitmap { return append([]bitvec.Bitmap(nil), x.vecs...) }
	first := func(bm bitvec.Bitmap) (at int) {
		bm.Iterate(func(p int) bool { at = p; return false })
		return at
	}
	last := len(x.vecs) - 1
	hole, twice, moved := bins(), bins(), bins()
	hole[last] = bitvec.FromBools(make([]bool, x.N()))
	twice[1] = twice[1].Or(twice[0])
	p, q := first(moved[0]), first(moved[last])
	from := bitvec.Bools(moved[0])
	from[p], from[q] = false, true
	moved[0] = bitvec.FromBools(from)
	// The proof names the first fault in segment order, within a segment
	// an overlap before a hole.
	movedWant := fmt.Sprintf("element %d lies in two bins", q)
	if p/bitvec.SegmentBits < q/bitvec.SegmentBits {
		movedWant = fmt.Sprintf("element %d lies in no bin", p)
	}
	return map[string]struct {
		vecs []bitvec.Bitmap
		want string
	}{
		"hole":    {hole, fmt.Sprintf("element %d lies in no bin", first(x.vecs[last]))},
		"overlap": {twice, fmt.Sprintf("element %d lies in two bins", first(x.vecs[0]))},
		"moved":   {moved, movedWant},
	}
}

// FromParts, the file door, refuses what no build makes — bins that leave
// an element out, hold one twice, or both at equal counts, in every codec;
// more than MaxIDBins bins; more than MaxUint32 elements; bitmaps of the
// wrong number or length — with an error naming the fault, never a panic,
// and takes what the builds make with their counts.
func TestFromPartsRefusesBrokenIndexes(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	data := testData(r, 3000)
	data[0], data[1] = 0.05, 9.95 // bin 0 and the last hold early elements
	m := mustUniform(t, 37)
	load := func(m binning.Mapper, vecs []bitvec.Bitmap, n int) (x *Index, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return FromParts(m, vecs, n)
	}
	for _, id := range []codec.ID{codec.WAH, codec.BBC, codec.Auto} {
		x := BuildCodec(data, m, id)
		sound, err := load(m, x.vecs, x.N())
		if err != nil {
			t.Fatalf("%v: the door refused a built index: %v", id, err)
		}
		for b := range x.vecs {
			if sound.Count(b) != x.Count(b) {
				t.Fatalf("%v: bin %d loads with count %d, built with %d", id, b, sound.Count(b), x.Count(b))
			}
		}
		for name, c := range brokenEdits(x) {
			vecs := make([]bitvec.Bitmap, len(c.vecs))
			for b, v := range c.vecs {
				vecs[b] = codec.Encode(v, id)
			}
			if _, err := load(m, vecs, x.N()); err == nil || !strings.Contains(err.Error(), "not a partition: "+c.want) {
				t.Errorf("%v %s: error %v, want one saying %q", id, name, err, c.want)
			}
		}
	}
	x := Build(data, m)
	wide, err := binning.NewUniform(0, 1, MaxIDBins+1)
	if err != nil {
		t.Fatal(err)
	}
	// A zero-fill may overhang its bitmap: one word covers 2³² bits.
	huge, err := bitvec.FromRawWords([]uint32{1<<31 | (math.MaxUint32/bitvec.SegmentBits + 1)}, math.MaxUint32+1)
	if err != nil {
		t.Fatal(err)
	}
	one, err := binning.NewExplicit([]float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		m    binning.Mapper
		vecs []bitvec.Bitmap
		n    int
		want string
	}{
		"more than MaxIDBins bins": {wide, make([]bitvec.Bitmap, MaxIDBins+1), 0, "65537 bins, want 1 to 65536"},
		"more than 2³²-1 elements": {one, []bitvec.Bitmap{huge}, math.MaxUint32 + 1, "4294967296 elements, more than 4294967295"},
		"negative length":          {m, x.vecs, -1, "18446744073709551615 elements, more than"},
		"a bin short":              {m, x.vecs[1:], x.N(), "36 vectors for 37 bins"},
		"a bin of another length":  {m, append([]bitvec.Bitmap{bitvec.FromBools(make([]bool, 5))}, x.vecs[1:]...), x.N(), "bin 0 covers 5 bits, want 3000"},
	} {
		if _, err := load(c.m, c.vecs, c.n); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one saying %q", name, err, c.want)
		}
	}
}

// The proof agrees with the []bool model on bins near a partition: ids laid
// out in runs, a few bits then flipped, each bin in a codec of its own. The
// door takes exactly the tilings, with their counts.
func TestTileMatchesTheModel(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	codecs := []codec.ID{codec.WAH, codec.BBC}
	for trial := 0; trial < 3000; trial++ {
		n, bins := r.Intn(400), 1+r.Intn(5)
		model := make([][]bool, bins)
		for b := range model {
			model[b] = make([]bool, n)
		}
		for i := 0; i < n; {
			b := r.Intn(bins)
			for k := 1 + r.Intn(80); k > 0 && i < n; k, i = k-1, i+1 {
				model[b][i] = true
			}
		}
		for k := r.Intn(4); k > 0 && n > 0; k-- {
			b, p := r.Intn(bins), r.Intn(n)
			model[b][p] = !model[b][p]
		}
		vecs := make([]bitvec.Bitmap, bins)
		for b, bs := range model {
			vecs[b] = codec.Encode(bitvec.FromBools(bs), codecs[r.Intn(len(codecs))])
		}
		tiles := true
		for p := 0; p < n; p++ {
			k := 0
			for b := range model {
				if model[b][p] {
					k++
				}
			}
			tiles = tiles && k == 1
		}
		m, err := binning.NewUniform(0, 1, bins)
		if err != nil {
			t.Fatal(err)
		}
		x, err := FromParts(m, vecs, n)
		if (err == nil) != tiles {
			t.Fatalf("trial %d (n=%d, %d bins): the model says tiles=%v, the door %v", trial, n, bins, tiles, err)
		}
		for b := 0; err == nil && b < bins; b++ {
			if x.Count(b) != vecs[b].Count() {
				t.Fatalf("trial %d: bin %d counted %d, holds %d", trial, b, x.Count(b), vecs[b].Count())
			}
		}
	}
}
