package bitvec

import (
	"fmt"
	"math/bits"
)

// ID is an element type WriteIDs can decode bin ids into: one or two bytes
// for the selection scorer's per-element id arrays (up to 256 and 65 536
// bins), four for the query layer's correlation scratch.
type ID interface {
	~uint8 | ~uint16 | ~int32
}

// WriteIDs stores id into dst at every set-bit position of b — the id-decode
// kernel: calling it for every bin of an index turns the index into one bin
// id per element in O(n). Each codec has one kernel body, instantiated per
// element width; any other Bitmap implementation is re-encoded as WAH first.
// dst must hold at least b.Len() elements.
func WriteIDs[T ID](b Bitmap, dst []T, id T) {
	if len(dst) < b.Len() {
		panic(fmt.Sprintf("bitvec: WriteIDs dst of %d for %d bits", len(dst), b.Len()))
	}
	if c, ok := b.(*BBC); ok {
		writeIDsBBC(c, dst, id)
		return
	}
	writeIDsWAH(ToVector(b), dst, id)
}

// writeIDsWAH turns one-fills into contiguous range writes, so a decode has
// no per-bit closure overhead; no position needs a bound check (the
// padding-zero invariant).
func writeIDsWAH[T ID](v *Vector, dst []T, id T) {
	pos := 0
	for _, w := range v.words {
		if w&fillFlag == 0 {
			for ; w != 0; w &= w - 1 {
				dst[pos+bits.TrailingZeros32(w)] = id
			}
			pos += SegmentBits
			continue
		}
		end := pos + int(w&countMask)*SegmentBits
		if w&fillValue != 0 {
			fillIDs(dst[pos:end], id)
		}
		pos = end
	}
}

// writeIDsBBC reads straight off the byte stream, token by token: one-runs
// are range writes, literal bytes are walked bit by bit (the padding-zero
// invariant: no position needs a bound check).
func writeIDsBBC[T ID](b *BBC, dst []T, id T) {
	data := b.data
	for i, at := 0, 0; i < len(data); {
		next, end, ok := b.step(i, at)
		if !ok {
			return
		}
		switch data[i] {
		case bbcZeroRun:
		case bbcOneRun:
			fillIDs(dst[8*at:8*end], id)
		default: // the chunk's bytes end at next
			for j, v := range data[next-(end-at) : next] {
				for p := 8 * (at + j); v != 0; v &= v - 1 {
					dst[p+bits.TrailingZeros8(v)] = id
				}
			}
		}
		i, at = next, end
	}
}

func fillIDs[T ID](dst []T, id T) {
	for p := range dst {
		dst[p] = id
	}
}
