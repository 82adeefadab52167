package bitvec

// Stats describes a vector's physical composition — how well WAH is
// working on this data. LiteralWords counts verbatim 31-bit words,
// FillWords the run-length words, and FilledSegments the segments those
// fills cover; high FilledSegments per FillWord is what makes compressed
// operations fast.
type Stats struct {
	LiteralWords   int
	FillWords      int
	ZeroFillWords  int
	OneFillWords   int
	FilledSegments int
	Bits           int
	SetBits        int
	// PhysicalBytes is the encoded footprint in bytes, set by every codec
	// (the WAH word tallies above only apply to word-aligned encodings).
	PhysicalBytes int
}

// Stats scans the encoded words.
func (v *Vector) Stats() Stats {
	st := Stats{Bits: v.nbits, SetBits: v.Count(), PhysicalBytes: v.SizeBytes()}
	for _, w := range v.words {
		if w&fillFlag != 0 {
			st.FillWords++
			st.FilledSegments += int(w & countMask)
			if w&fillValue != 0 {
				st.OneFillWords++
			} else {
				st.ZeroFillWords++
			}
		} else {
			st.LiteralWords++
		}
	}
	return st
}
