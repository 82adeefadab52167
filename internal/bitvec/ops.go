package bitvec

// The pairwise operations on the compressed form, and CountUnits. Both
// operands must have the same logical length; the result has that length.
// Each has one body, over the run iterators (generic.go), whatever the
// codecs: no operand is ever decompressed, and aligned fill runs combine in
// O(1) per run. No analysis calls them on a hot path — the metrics and
// mining decode each index into bin ids once and tally — so a per-codec
// kernel would be code without a caller that needs it.

// And returns v AND o as a WAH vector.
func (v *Vector) And(o Bitmap) Bitmap { return genericBinary(v, o, opAnd) }

// Or returns v OR o as a WAH vector.
func (v *Vector) Or(o Bitmap) Bitmap { return genericBinary(v, o, opOr) }

// AndCount returns Count(v AND o) without materializing the result.
func (v *Vector) AndCount(o Bitmap) int { return genericBinaryCount(v, o, opAnd) }

// XorCount returns Count(v XOR o) without materializing the result: the
// number of positions where exactly one of the two has a bit.
func (v *Vector) XorCount(o Bitmap) int { return genericBinaryCount(v, o, opXor) }

// CountUnits splits the vector into consecutive units of unitSize bits (the
// last unit may be short) and returns the set-bit count of each.
func (v *Vector) CountUnits(unitSize int) []int { return genericCountUnits(v, unitSize) }

// And returns b AND o. A BBC pair's result is re-encoded as BBC, so an
// operation on one codec stays in it; a mixed pair yields WAH.
func (b *BBC) And(o Bitmap) Bitmap { return b.keepCodec(o, genericBinary(b, o, opAnd)) }

// Or returns b OR o, in BBC for a BBC pair.
func (b *BBC) Or(o Bitmap) Bitmap { return b.keepCodec(o, genericBinary(b, o, opOr)) }

func (b *BBC) keepCodec(o Bitmap, v *Vector) Bitmap {
	if _, ok := o.(*BBC); ok {
		return bbcEncode(v, 0)
	}
	return v
}

// AndCount returns Count(b AND o) without materializing the result.
func (b *BBC) AndCount(o Bitmap) int { return genericBinaryCount(b, o, opAnd) }

// XorCount returns Count(b XOR o) without materializing the result.
func (b *BBC) XorCount(o Bitmap) int { return genericBinaryCount(b, o, opXor) }

// CountUnits reports the set-bit count of each unitSize-bit unit.
func (b *BBC) CountUnits(unitSize int) []int { return genericCountUnits(b, unitSize) }

type opKind uint8

const (
	opAnd opKind = iota
	opOr
	opXor
)

func (k opKind) apply(x, y uint32) uint32 {
	switch k {
	case opAnd:
		return x & y
	case opOr:
		return x | y
	default:
		return x ^ y
	}
}

// fillBits returns the fill value two fills combine to: for every op,
// fill ⊗ fill is a fill.
func (k opKind) fillBits(x, y uint32) uint32 {
	return k.apply(x, y) & 1
}
