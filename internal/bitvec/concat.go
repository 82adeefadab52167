package bitvec

import "fmt"

// Concat stitches vectors end to end, merging fill runs at the seams. Every
// vector except the last must end on a 31-bit segment boundary — the
// parallel in-situ build guarantees this by aligning sub-block sizes to
// SegmentBits — so the compressed words can be joined without re-encoding.
// This is how per-core "distributed bitmaps" (paper §2.3, Figure 2) are
// assembled into a single logical vector for global analysis. The result is
// sized up front from the parts' word counts; a single part is returned as
// is (bitmaps are immutable, so sharing is safe).
func Concat(parts ...Bitmap) (*Vector, error) {
	if len(parts) == 0 {
		return &Vector{}, nil
	}
	if len(parts) == 1 {
		return ToVector(parts[0]), nil
	}
	words := 0
	for _, part := range parts {
		words += part.Words()
	}
	a := Appender{words: make([]uint32, 0, words)}
	for i, part := range parts {
		p := ToVector(part)
		if i < len(parts)-1 && p.nbits%SegmentBits != 0 {
			return nil, fmt.Errorf("bitvec: Concat part %d ends mid-segment (%d bits)", i, p.nbits)
		}
		for _, w := range p.words {
			if w&fillFlag != 0 {
				a.appendFill((w&fillValue)>>30, int(w&countMask))
			} else {
				a.words = append(a.words, w)
			}
		}
		a.nbits += p.nbits
	}
	return a.Vector(), nil
}

// MustConcat is Concat that panics on misaligned input; for callers that
// construct the parts themselves and have already enforced alignment.
func MustConcat(parts ...Bitmap) *Vector {
	v, err := Concat(parts...)
	if err != nil {
		panic(err)
	}
	return v
}
