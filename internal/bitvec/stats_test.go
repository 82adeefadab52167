package bitvec

import (
	"testing"
	"testing/quick"
)

func TestStatsAccounting(t *testing.T) {
	var a Appender
	a.AppendFill(0, 10)
	a.AppendSegment(0x5)
	a.AppendFill(1, 3)
	v := a.Vector()
	st := v.Stats()
	if st.LiteralWords != 1 || st.FillWords != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.ZeroFillWords != 1 || st.OneFillWords != 1 {
		t.Fatalf("fill split %+v", st)
	}
	if st.FilledSegments != 13 {
		t.Fatalf("FilledSegments=%d", st.FilledSegments)
	}
	if st.Bits != 14*SegmentBits || st.SetBits != 2+3*SegmentBits {
		t.Fatalf("bit accounting %+v", st)
	}
	// BBC's tallies are per token: a zero run of 10 bytes, a literal byte,
	// a one run of 3 bytes.
	raw := append(make([]byte, 10), 0x05, 0xFF, 0xFF, 0xFF)
	bst := BBCFromBytes(raw, 8*len(raw)).Stats()
	want := Stats{LiteralWords: 1, FillWords: 2, ZeroFillWords: 1, OneFillWords: 1,
		FilledSegments: 13 * 8 / SegmentBits, Bits: 8 * len(raw), SetBits: 2 + 24, PhysicalBytes: 6}
	if bst != want {
		t.Fatalf("BBC stats %+v, want %+v", bst, want)
	}
}

func TestStatsConsistentWithWords(t *testing.T) {
	f := func(bs boolsValue) bool {
		v := FromBools(bs)
		st := v.Stats()
		return st.LiteralWords+st.FillWords == v.Words() &&
			st.SetBits == v.Count() && st.Bits == v.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDerivedCountsProperty(t *testing.T) {
	f := func(p pairValue) bool {
		va, vb := FromBools(p.A), FromBools(p.B)
		// Inclusion-exclusion: |A∪B| + |A∩B| = |A| + |B|, and the symmetric
		// difference is what the union holds beyond the intersection.
		and, or := va.AndCount(vb), va.Or(vb).Count()
		return or+and == va.Count()+vb.Count() && va.XorCount(vb) == or-and
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
