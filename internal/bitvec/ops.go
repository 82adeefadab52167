package bitvec

import (
	"bytes"
	"slices"
)

// The pairwise operations, CountUnits and Equal, for either codec and any
// mix. Both operands must have the same logical length; a result has that
// length and is WAH. Each has one body, on the flat form (flat.go): an
// operand ORs itself into flat words, and the words are combined with a
// word loop (And), a second OrInto (Or), a masked count (AndCount) or a
// popcount per unit (CountUnits). No analysis calls them on a hot path —
// the query executor and the metrics work on flat words and bin ids
// directly — so a kernel per codec pairing would be code without a caller
// that needs it.

func and(a, b Bitmap) Bitmap {
	n := checkLen(a, b)
	tel.opAnd.Inc()
	x, y := flat(a), flat(b)
	for i := range x {
		x[i] &= y[i]
	}
	return FromFlat(x, n)
}

func or(a, b Bitmap) Bitmap {
	n := checkLen(a, b)
	tel.opOr.Inc()
	x := flat(a)
	b.OrInto(x, 0, len(x))
	return FromFlat(x, n)
}

func andCount(a, b Bitmap) int {
	checkLen(a, b)
	return CountMasked(b, flat(a), 0)
}

// xorCount is the number of positions where exactly one of a and b has a
// bit: |a| + |b| − 2·|a ∧ b|.
func xorCount(a, b Bitmap) int {
	return a.Count() + b.Count() - 2*andCount(a, b)
}

// countUnits splits b into consecutive units of unitSize bits (the last
// may be short) and returns the set-bit count of each.
func countUnits(b Bitmap, unitSize int) []int {
	if unitSize <= 0 {
		panic("bitvec: CountUnits requires unitSize > 0")
	}
	n := b.Len()
	x := flat(b)
	out := make([]int, (n+unitSize-1)/unitSize)
	for u := range out {
		out[u] = countFlatRange(x, u*unitSize, min((u+1)*unitSize, n))
	}
	return out
}

func equal(a, b Bitmap) bool {
	return a.Len() == b.Len() && slices.Equal(flat(a), flat(b))
}

// And returns v AND o.
func (v *Vector) And(o Bitmap) Bitmap { return and(v, o) }

// Or returns v OR o.
func (v *Vector) Or(o Bitmap) Bitmap { return or(v, o) }

// AndCount returns Count(v AND o) without encoding the result.
func (v *Vector) AndCount(o Bitmap) int { return andCount(v, o) }

// XorCount returns Count(v XOR o) without encoding the result.
func (v *Vector) XorCount(o Bitmap) int { return xorCount(v, o) }

// CountUnits reports the set-bit count of each unitSize-bit unit.
func (v *Vector) CountUnits(unitSize int) []int { return countUnits(v, unitSize) }

// Equal reports whether two bitmaps have identical logical contents.
// Physical encodings may differ (e.g. two adjacent fills vs one), so the
// flat words decide.
func (v *Vector) Equal(o Bitmap) bool { return equal(v, o) }

// And returns b AND o.
func (b *BBC) And(o Bitmap) Bitmap { return and(b, o) }

// Or returns b OR o.
func (b *BBC) Or(o Bitmap) Bitmap { return or(b, o) }

// AndCount returns Count(b AND o) without encoding the result.
func (b *BBC) AndCount(o Bitmap) int { return andCount(b, o) }

// XorCount returns Count(b XOR o) without encoding the result.
func (b *BBC) XorCount(o Bitmap) int { return xorCount(b, o) }

// CountUnits reports the set-bit count of each unitSize-bit unit.
func (b *BBC) CountUnits(unitSize int) []int { return countUnits(b, unitSize) }

// Equal reports whether two bitmaps have identical logical contents; equal
// streams are a shortcut.
func (b *BBC) Equal(o Bitmap) bool {
	if c, ok := o.(*BBC); ok && b.nbits == c.nbits && bytes.Equal(b.data, c.data) {
		return true
	}
	return equal(b, o)
}
