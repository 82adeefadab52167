package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func naiveOp(a, b []bool, op func(x, y bool) bool) []bool {
	out := make([]bool, len(a))
	for i := range a {
		out[i] = op(a[i], b[i])
	}
	return out
}

func sameBits(t *testing.T, name string, v Bitmap, want []bool) {
	t.Helper()
	if v.Len() != len(want) {
		t.Fatalf("%s: Len=%d want %d", name, v.Len(), len(want))
	}
	got := Bools(v)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: bit %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

func TestBinaryOpsProperty(t *testing.T) {
	f := func(p pairValue) bool {
		va, vb := FromBools(p.A), FromBools(p.B)
		checks := []struct {
			got  Bitmap
			want []bool
		}{
			{va.And(vb), naiveOp(p.A, p.B, func(x, y bool) bool { return x && y })},
			{va.Or(vb), naiveOp(p.A, p.B, func(x, y bool) bool { return x || y })},
		}
		for _, c := range checks {
			if c.got.Len() != len(c.want) {
				return false
			}
			bs := Bools(c.got)
			for i := range c.want {
				if bs[i] != c.want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOpsPreserveOperands(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := randomBools(r, 500)
	b := make([]bool, len(a))
	for i := range b {
		b[i] = r.Intn(2) == 0
	}
	va, vb := FromBools(a), FromBools(b)
	_ = va.And(vb)
	_ = va.Or(vb)
	_ = va.XorCount(vb)
	if !va.Equal(FromBools(a)) || !vb.Equal(FromBools(b)) {
		t.Fatal("operands mutated by operations")
	}
}

func TestOpsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FromBools(make([]bool, 10)).And(FromBools(make([]bool, 11)))
}

func TestFillFillFastPath(t *testing.T) {
	// Two long solid vectors: the op must stay O(runs), producing few words.
	n := 31 * 100000
	ones := make([]bool, n)
	for i := range ones {
		ones[i] = true
	}
	va := FromBools(ones)
	vb := FromBools(make([]bool, n))
	and := va.And(vb)
	if and.Words() != 1 || and.Count() != 0 {
		t.Fatalf("fill AND fill: words=%d count=%d", and.Words(), and.Count())
	}
	or := va.Or(vb)
	if or.Words() != 1 || or.Count() != n {
		t.Fatalf("fill OR fill: words=%d count=%d", or.Words(), or.Count())
	}
	if xor := va.XorCount(vb); xor != n {
		t.Fatalf("fill XOR fill: count=%d", xor)
	}
}

func TestMixedFillLiteralAlignment(t *testing.T) {
	// a: long 1-fill; b: literal pattern — exercises the fill×literal path
	// where the fill run must be consumed one segment at a time.
	n := 31 * 50
	aBits := make([]bool, n)
	for i := range aBits {
		aBits[i] = true
	}
	bBits := make([]bool, n)
	for i := 0; i < n; i += 3 {
		bBits[i] = true
	}
	va, vb := FromBools(aBits), FromBools(bBits)
	and := va.And(vb)
	sameBits(t, "fill×literal and", and, bBits)
	if got, want := and.Count(), (n+2)/3; got != want {
		t.Fatalf("Count=%d want %d", got, want)
	}
}

func TestXorSelfIsZero(t *testing.T) {
	f := func(bs boolsValue) bool {
		v := FromBools(bs)
		return v.XorCount(v) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
