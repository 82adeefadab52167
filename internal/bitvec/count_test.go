package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func naiveCount(bs []bool, from, to int) int {
	n := 0
	for i := from; i < to; i++ {
		if bs[i] {
			n++
		}
	}
	return n
}

func TestCountProperty(t *testing.T) {
	f := func(bs boolsValue) bool {
		return FromBools(bs).Count() == naiveCount(bs, 0, len(bs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCountRangeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 400; trial++ {
		bs := randomBools(r, 1500)
		v := FromBools(bs)
		if len(bs) == 0 {
			if v.CountRange(0, 0) != 0 {
				t.Fatal("empty CountRange nonzero")
			}
			continue
		}
		from := r.Intn(len(bs) + 1)
		to := from + r.Intn(len(bs)-from+1)
		got := v.CountRange(from, to)
		want := naiveCount(bs, from, to)
		if got != want {
			t.Fatalf("trial %d: CountRange(%d,%d)=%d want %d (len %d)", trial, from, to, got, want, len(bs))
		}
	}
}

func TestCountRangeBounds(t *testing.T) {
	v := FromBools(make([]bool, 10))
	for _, c := range [][2]int{{-1, 5}, {0, 11}, {6, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("CountRange(%d,%d) did not panic", c[0], c[1])
				}
			}()
			v.CountRange(c[0], c[1])
		}()
	}
}

func TestCountUnitsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		bs := randomBools(r, 1500)
		if len(bs) == 0 {
			continue
		}
		v := FromBools(bs)
		unit := 1 + r.Intn(200)
		got := v.CountUnits(unit)
		nUnits := (len(bs) + unit - 1) / unit
		if len(got) != nUnits {
			t.Fatalf("trial %d: %d units, want %d", trial, len(got), nUnits)
		}
		for u := 0; u < nUnits; u++ {
			from := u * unit
			to := from + unit
			if to > len(bs) {
				to = len(bs)
			}
			if want := naiveCount(bs, from, to); got[u] != want {
				t.Fatalf("trial %d: unit %d = %d, want %d", trial, u, got[u], want)
			}
		}
	}
}

func TestAndCountXorCountProperty(t *testing.T) {
	f := func(p pairValue) bool {
		va, vb := FromBools(p.A), FromBools(p.B)
		if va.AndCount(vb) != va.And(vb).Count() {
			return false
		}
		return va.XorCount(vb) == naiveCount(naiveOp(p.A, p.B, func(x, y bool) bool { return x != y }), 0, len(p.A))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAndXorCountSymmetric(t *testing.T) {
	f := func(p pairValue) bool {
		va, vb := FromBools(p.A), FromBools(p.B)
		return va.AndCount(vb) == vb.AndCount(va) && va.XorCount(vb) == vb.XorCount(va)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCountEmptyAndEdges(t *testing.T) {
	empty := FromBools(nil)
	if empty.Count() != 0 || empty.Len() != 0 {
		t.Fatal("empty vector not empty")
	}
	one := FromBools([]bool{true})
	if one.Count() != 1 || one.CountRange(0, 1) != 1 {
		t.Fatal("single-bit vector miscounted")
	}
	// Exactly one segment of ones: stored as a fill, partial masking must
	// still count correctly when the logical length equals the segment.
	seg := make([]bool, SegmentBits)
	for i := range seg {
		seg[i] = true
	}
	v := FromBools(seg)
	if v.Count() != SegmentBits {
		t.Fatalf("Count=%d", v.Count())
	}
	// 32 ones: fill word + partial literal of width 1.
	seg = append(seg, true)
	v = FromBools(seg)
	if v.Count() != 32 {
		t.Fatalf("Count=%d want 32", v.Count())
	}
	if v.CountRange(30, 32) != 2 {
		t.Fatalf("CountRange(30,32)=%d want 2", v.CountRange(30, 32))
	}
}

func BenchmarkAndCountSparse(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	n := 1 << 20
	mk := func() *Vector {
		var idx []int
		for i := 0; i < n; i += 300 + r.Intn(300) {
			idx = append(idx, i)
		}
		return FromIndices(n, idx)
	}
	va, vb := mk(), mk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va.AndCount(vb)
	}
}

func BenchmarkXorCountDense(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	n := 1 << 20
	bs := make([]bool, n)
	cs := make([]bool, n)
	for i := range bs {
		bs[i] = r.Intn(2) == 0
		cs[i] = r.Intn(2) == 0
	}
	va, vb := FromBools(bs), FromBools(cs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va.XorCount(vb)
	}
}

func TestWriteIDsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 200; trial++ {
		bs := randomBools(r, 1500)
		v := FromBools(bs)
		dst := make([]int32, len(bs))
		for i := range dst {
			dst[i] = -1
		}
		WriteIDs(v, dst, 7)
		for i, b := range bs {
			want := int32(-1)
			if b {
				want = 7
			}
			if dst[i] != want {
				t.Fatalf("trial %d: dst[%d]=%d want %d", trial, i, dst[i], want)
			}
		}
	}
}

func TestWriteIDsShortDstPanics(t *testing.T) {
	v := FromBools(make([]bool, 40))
	defer func() {
		if recover() == nil {
			t.Fatal("short dst accepted")
		}
	}()
	WriteIDs(v, make([]int32, 10), 1)
}

var sinkCount int

// BenchmarkCount is the population count of one 1M-bit ocean-like bin per
// codec, as an index load and a bits answer's row count pay it per bin.
func BenchmarkCount(b *testing.B) {
	for _, c := range oceanLikeBins() {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(c.bm.SizeBytes()))
			for i := 0; i < b.N; i++ {
				sinkCount = c.bm.Count()
			}
		})
	}
}
