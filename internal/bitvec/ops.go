package bitvec

import "fmt"

// Binary bitwise operations on the compressed form. Both operands must have
// the same logical length; the result has that length. No operand is ever
// decompressed: aligned runs of fill words are combined in O(1) per run,
// which is what makes the paper's metric computations (XOR for EMD, AND for
// joint distributions) fast.

// And returns v AND o. A WAH pair dispatches to the native run merge;
// mixed-codec pairs go through the generic run-iterator merge.
func (v *Vector) And(o Bitmap) Bitmap { return v.binaryOp(o, opAnd) }

// Or returns v OR o.
func (v *Vector) Or(o Bitmap) Bitmap { return v.binaryOp(o, opOr) }

func (v *Vector) binaryOp(o Bitmap, k opKind) Bitmap {
	if ov, ok := o.(*Vector); ok {
		return v.binary(ov, k)
	}
	return genericBinary(v, o, k)
}

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

func (v *Vector) binary(o *Vector, k opKind) *Vector {
	if v.nbits != o.nbits {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.nbits, o.nbits))
	}
	countOp(k)
	var a runIter
	var b runIter
	a.reset(v.words)
	b.reset(o.words)
	var out Appender
	for a.valid() && b.valid() {
		if a.fill && b.fill {
			n := a.run
			if b.run < n {
				n = b.run
			}
			out.appendFill(k.fillBits(a.fillBit(), b.fillBit()), n)
			out.nbits += n * SegmentBits
			a.consume(n)
			b.consume(n)
			continue
		}
		// at least one literal: process exactly one segment
		w := k.apply(a.payload(), b.payload()) & literalMask
		switch w {
		case literalMask:
			out.appendFill(1, 1)
		case 0:
			out.appendFill(0, 1)
		default:
			out.words = append(out.words, w)
			out.lits++
		}
		out.nbits += SegmentBits
		a.consume(1)
		b.consume(1)
	}
	res := out.Vector()
	res.nbits = v.nbits // trailing partial segment keeps the logical length
	return res
}
