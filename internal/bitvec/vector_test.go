package bitvec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomBools produces adversarial bit patterns for property tests: pure
// random bits compress poorly and never exercise fills, so we generate runs
// with random lengths and values plus occasional noise.
func randomBools(r *rand.Rand, maxLen int) []bool {
	n := r.Intn(maxLen)
	out := make([]bool, 0, n)
	for len(out) < n {
		switch r.Intn(3) {
		case 0: // run of identical bits, often crossing segment boundaries
			v := r.Intn(2) == 1
			l := 1 + r.Intn(120)
			for i := 0; i < l && len(out) < n; i++ {
				out = append(out, v)
			}
		case 1: // noisy stretch
			l := 1 + r.Intn(40)
			for i := 0; i < l && len(out) < n; i++ {
				out = append(out, r.Intn(2) == 1)
			}
		default: // sparse stretch
			l := 1 + r.Intn(80)
			for i := 0; i < l && len(out) < n; i++ {
				out = append(out, r.Intn(17) == 0)
			}
		}
	}
	return out
}

// boolsValue adapts randomBools to testing/quick's Generator protocol.
type boolsValue []bool

func (boolsValue) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(boolsValue(randomBools(r, 2000)))
}

// pairValue generates two equal-length bool slices.
type pairValue struct{ A, B []bool }

func (pairValue) Generate(r *rand.Rand, size int) reflect.Value {
	a := randomBools(r, 2000)
	b := randomBools(r, len(a)+1)
	for len(b) < len(a) {
		b = append(b, r.Intn(2) == 1)
	}
	return reflect.ValueOf(pairValue{A: a, B: b[:len(a)]})
}

func TestRoundTripProperty(t *testing.T) {
	f := func(bs boolsValue) bool {
		v := FromBools(bs)
		if v.Len() != len(bs) {
			return false
		}
		got := Bools(v)
		for i := range bs {
			if got[i] != bs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualProperty(t *testing.T) {
	f := func(bs boolsValue) bool {
		v := FromBools(bs)
		w := FromBools(bs)
		return v.Equal(w) && w.Equal(v) && v.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualDetectsDifference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		bs := randomBools(r, 1000)
		if len(bs) == 0 {
			continue
		}
		v := FromBools(bs)
		i := r.Intn(len(bs))
		bs[i] = !bs[i]
		w := FromBools(bs)
		if v.Equal(w) {
			t.Fatalf("trial %d: Equal true after flipping bit %d", trial, i)
		}
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	a := FromBools(make([]bool, 31))
	b := FromBools(make([]bool, 32))
	if a.Equal(b) {
		t.Fatal("vectors of different lengths reported equal")
	}
}

func TestFromIndices(t *testing.T) {
	cases := []struct {
		n   int
		idx []int
	}{
		{0, nil},
		{1, []int{0}},
		{31, []int{0, 30}},
		{32, []int{31}},
		{100, []int{0, 31, 62, 93, 99}},
		{1000, []int{500}},
	}
	for _, c := range cases {
		v := FromIndices(c.n, c.idx)
		if v.Len() != c.n {
			t.Fatalf("n=%d idx=%v: Len=%d", c.n, c.idx, v.Len())
		}
		want := make([]bool, c.n)
		for _, i := range c.idx {
			want[i] = true
		}
		got := Bools(v)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d idx=%v: bit %d = %v, want %v", c.n, c.idx, i, got[i], want[i])
			}
		}
		if v.Count() != len(c.idx) {
			t.Fatalf("n=%d idx=%v: Count=%d want %d", c.n, c.idx, v.Count(), len(c.idx))
		}
	}
}

func TestFromIndicesPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsorted indices")
		}
	}()
	FromIndices(10, []int{5, 3})
}

func TestIterateEarlyStop(t *testing.T) {
	v := FromIndices(100, []int{1, 5, 9, 60})
	var seen []int
	v.Iterate(func(p int) bool {
		seen = append(seen, p)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 5 {
		t.Fatalf("early stop iterated %v", seen)
	}
}

func TestIterateProperty(t *testing.T) {
	f := func(bs boolsValue) bool {
		v := FromBools(bs)
		var got []int
		v.Iterate(func(p int) bool { got = append(got, p); return true })
		var want []int
		for i, b := range bs {
			if b {
				want = append(want, i)
			}
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFromRawWordsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		bs := randomBools(r, 2000)
		v := FromBools(bs)
		w, err := FromRawWords(v.RawWords(), v.Len())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !v.Equal(w) {
			t.Fatalf("trial %d: round trip not equal", trial)
		}
	}
}

func TestFromRawWordsRejectsMalformed(t *testing.T) {
	if _, err := FromRawWords([]uint32{fillFlag}, 31); err == nil {
		t.Fatal("zero-length fill accepted")
	}
	if _, err := FromRawWords([]uint32{1}, 100); err == nil {
		t.Fatal("bit length beyond coverage accepted")
	}
	if _, err := FromRawWords([]uint32{1, 2}, 5); err == nil {
		t.Fatal("bit length far below coverage accepted")
	}
	if _, err := FromRawWords(nil, -1); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestCompressionOfSolidRuns(t *testing.T) {
	// 10^6 zeros must compress to a single fill word (plus partial handling).
	n := 31 * 1000
	v := FromBools(make([]bool, n))
	if v.Words() != 1 {
		t.Fatalf("solid zero vector uses %d words, want 1 (%s)", v.Words(), v.String())
	}
	ones := make([]bool, n)
	for i := range ones {
		ones[i] = true
	}
	w := FromBools(ones)
	if w.Words() != 1 {
		t.Fatalf("solid one vector uses %d words, want 1", w.Words())
	}
	if w.Count() != n {
		t.Fatalf("Count=%d want %d", w.Count(), n)
	}
}

func TestVeryLongFillSplitsAtCounterLimit(t *testing.T) {
	var a Appender
	a.AppendFill(1, maxRun+5)
	v := a.Vector()
	if v.Len() != (maxRun+5)*SegmentBits {
		t.Fatalf("Len=%d", v.Len())
	}
	if v.Count() != v.Len() {
		t.Fatalf("Count=%d want %d", v.Count(), v.Len())
	}
	if v.Words() != 2 {
		t.Fatalf("words=%d want 2 (split at counter limit)", v.Words())
	}
}

func TestStringFormat(t *testing.T) {
	v := FromBools([]bool{true, false, true})
	s := v.String()
	if s == "" || s[:4] != "len=" {
		t.Fatalf("String() = %q", s)
	}
}
