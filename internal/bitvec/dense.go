package bitvec

import (
	"fmt"
	"math/bits"
)

// Dense is the uncompressed codec: one 31-bit segment per 32-bit word, in
// the same segment layout as WAH literals but with no fill words. For bins
// whose density is high enough that fill runs never form (the adaptive
// policy's ≥50% regime), Dense trades the ~32/31 storage overhead for
// branch-free word-at-a-time operations.
//
// Invariants: len(words) == ceil(nbits/31); bit 31 of every word is clear;
// bits of the final word beyond nbits are zero. The zero value is an empty
// bitmap.
type Dense struct {
	words []uint32
	nbits int
}

// DenseFromBitmap re-encodes any bitmap as Dense. A *Dense passes through
// unchanged (bitmaps are immutable, so sharing is safe).
func DenseFromBitmap(b Bitmap) *Dense {
	if d, ok := b.(*Dense); ok {
		return d
	}
	n := b.Len()
	segs := (n + SegmentBits - 1) / SegmentBits
	d := &Dense{words: make([]uint32, segs), nbits: n}
	pos := 0
	var it bmIter
	it.reset(b.Runs())
	for it.ok && pos < segs {
		if it.run.Fill {
			if it.run.Bit != 0 {
				end := pos + it.run.N
				if end > segs {
					end = segs
				}
				for i := pos; i < end; i++ {
					d.words[i] = literalMask
				}
			}
			pos += it.run.N
			it.consume(it.run.N)
			continue
		}
		d.words[pos] = it.run.Word & literalMask
		pos++
		it.consume(1)
	}
	d.maskTail()
	return d
}

// DenseFromRawWords reconstructs a Dense bitmap from stored words,
// validating the layout invariants; used by the store reader.
func DenseFromRawWords(words []uint32, nbits int) (*Dense, error) {
	if nbits < 0 {
		return nil, fmt.Errorf("bitvec: negative bit length %d", nbits)
	}
	segs := (nbits + SegmentBits - 1) / SegmentBits
	if len(words) != segs {
		return nil, fmt.Errorf("bitvec: dense encoding has %d words, want %d for %d bits", len(words), segs, nbits)
	}
	for i, w := range words {
		if w&^literalMask != 0 {
			return nil, fmt.Errorf("bitvec: dense word %d has bit 31 set (%#x)", i, w)
		}
	}
	if rem := nbits % SegmentBits; rem != 0 && segs > 0 {
		if words[segs-1]&^(uint32(1)<<uint(rem)-1) != 0 {
			return nil, fmt.Errorf("bitvec: dense encoding has set bits beyond length %d", nbits)
		}
	}
	return &Dense{words: append([]uint32(nil), words...), nbits: nbits}, nil
}

// maskTail zeroes the final word's bits beyond the logical length.
func (d *Dense) maskTail() {
	if rem := d.nbits % SegmentBits; rem != 0 && len(d.words) > 0 {
		d.words[len(d.words)-1] &= uint32(1)<<uint(rem) - 1
	}
}

// Len returns the logical number of bits.
func (d *Dense) Len() int { return d.nbits }

// Words returns the number of physical 32-bit words.
func (d *Dense) Words() int { return len(d.words) }

// SizeBytes returns the physical size in bytes.
func (d *Dense) SizeBytes() int { return 4 * len(d.words) }

// RawWords exposes the underlying words (read-only; used by store).
func (d *Dense) RawWords() []uint32 { return d.words }

// Count returns the number of set bits; the tail invariant makes this a
// plain popcount sweep with no masking.
func (d *Dense) Count() int {
	total := 0
	for _, w := range d.words {
		total += bits.OnesCount32(w)
	}
	return total
}

// CountRange returns the number of set bits in [from, to).
func (d *Dense) CountRange(from, to int) int {
	if from < 0 || to > d.nbits || from > to {
		panic(fmt.Sprintf("bitvec: CountRange[%d,%d) out of range [0,%d]", from, to, d.nbits))
	}
	if from == to {
		return 0
	}
	total := 0
	s0, s1 := from/SegmentBits, (to-1)/SegmentBits
	for s := s0; s <= s1; s++ {
		w := d.words[s]
		base := s * SegmentBits
		lo := 0
		if from > base {
			lo = from - base
		}
		hi := SegmentBits
		if to < base+SegmentBits {
			hi = to - base
		}
		w >>= uint(lo)
		w &= uint32(1)<<uint(hi-lo) - 1
		total += bits.OnesCount32(w)
	}
	return total
}

// CountUnits reports the set-bit count of each unitSize-bit unit.
func (d *Dense) CountUnits(unitSize int) []int { return genericCountUnits(d, unitSize) }

// Get reports the value of logical bit i.
func (d *Dense) Get(i int) bool {
	if i < 0 || i >= d.nbits {
		panic(fmt.Sprintf("bitvec: Get(%d) out of range [0,%d)", i, d.nbits))
	}
	return d.words[i/SegmentBits]&(1<<uint(i%SegmentBits)) != 0
}

// Iterate calls fn for each set bit in ascending order; fn returning false
// stops early.
func (d *Dense) Iterate(fn func(pos int) bool) {
	for s, w := range d.words {
		base := s * SegmentBits
		for w != 0 {
			j := bits.TrailingZeros32(w)
			if !fn(base + j) {
				return
			}
			w &= w - 1
		}
	}
}

// And returns d AND o; a Dense pair combines word-at-a-time.
func (d *Dense) And(o Bitmap) Bitmap { return d.binaryOp(o, opAnd) }

// Or returns d OR o.
func (d *Dense) Or(o Bitmap) Bitmap { return d.binaryOp(o, opOr) }

// Xor returns d XOR o.
func (d *Dense) Xor(o Bitmap) Bitmap { return d.binaryOp(o, opXor) }

// AndNot returns d AND NOT o.
func (d *Dense) AndNot(o Bitmap) Bitmap { return d.binaryOp(o, opAndNot) }

func (d *Dense) binaryOp(o Bitmap, k opKind) Bitmap {
	od, ok := o.(*Dense)
	if !ok {
		return genericBinary(d, o, k)
	}
	checkLen(d, od)
	countOp(k)
	res := &Dense{words: make([]uint32, len(d.words)), nbits: d.nbits}
	for i := range d.words {
		res.words[i] = k.apply(d.words[i], od.words[i]) & literalMask
	}
	// AndNot/Xor against a shorter tail cannot set bits beyond Len because
	// both tails are zero, so the tail invariant is preserved by apply.
	return res
}

// Not returns the complement of d within its logical length.
func (d *Dense) Not() Bitmap {
	tel.opNot.Inc()
	res := &Dense{words: make([]uint32, len(d.words)), nbits: d.nbits}
	for i, w := range d.words {
		res.words[i] = ^w & literalMask
	}
	res.maskTail()
	return res
}

// AndCount returns Count(d AND o) without materializing the result.
func (d *Dense) AndCount(o Bitmap) int { return d.binaryCount(o, opAnd) }

// OrCount returns Count(d OR o) without materializing the result.
func (d *Dense) OrCount(o Bitmap) int { return d.binaryCount(o, opOr) }

// XorCount returns Count(d XOR o) without materializing the result.
func (d *Dense) XorCount(o Bitmap) int { return d.binaryCount(o, opXor) }

// AndNotCount returns Count(d AND NOT o) without materializing the result.
func (d *Dense) AndNotCount(o Bitmap) int { return d.binaryCount(o, opAndNot) }

func (d *Dense) binaryCount(o Bitmap, k opKind) int {
	od, ok := o.(*Dense)
	if !ok {
		return genericBinaryCount(d, o, k)
	}
	checkLen(d, od)
	total := 0
	for i := range d.words {
		total += bits.OnesCount32(k.apply(d.words[i], od.words[i]) & literalMask)
	}
	return total
}

// Clone returns a deep copy.
func (d *Dense) Clone() Bitmap {
	return &Dense{words: append([]uint32(nil), d.words...), nbits: d.nbits}
}

// Equal reports whether two bitmaps have identical logical contents.
func (d *Dense) Equal(o Bitmap) bool {
	if od, ok := o.(*Dense); ok {
		if d.nbits != od.nbits {
			return false
		}
		for i := range d.words {
			if d.words[i] != od.words[i] {
				return false
			}
		}
		return true
	}
	return genericEqual(d, o)
}

// Stats describes the physical composition; for Dense every word is a
// literal and PhysicalBytes carries the true footprint.
func (d *Dense) Stats() Stats {
	return Stats{
		LiteralWords:  len(d.words),
		Bits:          d.nbits,
		SetBits:       d.Count(),
		PhysicalBytes: d.SizeBytes(),
	}
}

// Runs streams the contents at segment granularity, coalescing consecutive
// all-zero and all-one words into fill runs.
func (d *Dense) Runs() RunReader { return &denseRunReader{words: d.words} }

type denseRunReader struct {
	words []uint32
	pos   int
}

func (r *denseRunReader) NextRun() (Run, bool) {
	if r.pos >= len(r.words) {
		return Run{}, false
	}
	w := r.words[r.pos]
	if w == 0 || w == literalMask {
		// The tail invariant guarantees a partial final segment is never
		// literalMask, so a one-fill here cannot overhang the length.
		j := r.pos + 1
		for j < len(r.words) && r.words[j] == w {
			j++
		}
		run := Run{Fill: true, N: j - r.pos}
		if w == literalMask {
			run.Bit = 1
		}
		r.pos = j
		return run, true
	}
	r.pos++
	return Run{N: 1, Word: w}, true
}

var _ Bitmap = (*Dense)(nil)
