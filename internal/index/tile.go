package index

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"insitubits/internal/bitvec"
)

// CheckShape reports whether an index of n elements in bins bins can be one
// (DESIGN.md §3a): 1 to MaxIDBins bins, and at most math.MaxUint32 elements,
// the most a build indexes. The store asks it of a file's header before
// allocating anything the header sizes.
func CheckShape(n uint64, bins int) error {
	switch {
	case bins < 1 || bins > MaxIDBins:
		return fmt.Errorf("index: %d bins, want 1 to %d", bins, MaxIDBins)
	case n > math.MaxUint32:
		return fmt.Errorf("index: %d elements, more than %d", n, uint64(math.MaxUint32))
	}
	return nil
}

// tile proves that vecs, n bits each, tile [0, n) and returns each one's
// count. It merges the bins' runs in segment order (the 31-bit segments of
// the WAH form) through a min-heap of one cursor per bin, each on its next
// run that sets a bit: a one-fill must be alone over its span, the literals
// that meet in a segment must be disjoint and OR to its full mask, and the
// walk must reach the last segment. Zero runs are skipped, so the proof
// costs O(encoded size) time and O(bins) memory, whatever n is. It names
// the first fault in segment order, within a segment an overlap first.
func tile(vecs []bitvec.Bitmap, n int) ([]int, error) {
	counts := make([]int, len(vecs))
	cs := make([]tileCursor, len(vecs))
	var h cursorHeap // seg<<16 | bin of each cursor with a run in hand
	for b, v := range vecs {
		if cs[b].rd = v.Runs(); cs[b].next() {
			h = append(h, uint64(cs[b].seg)<<16|uint64(b))
		}
	}
	slices.Sort(h)               // a sorted array is a heap
	full := func(s int) uint32 { // the bits of segment s that are elements
		return uint32(1)<<uint(min(n-s*bitvec.SegmentBits, bitvec.SegmentBits)) - 1
	}
	at, acc := 0, uint32(0) // the first segment not yet covered, and its bits that are
	for len(h) > 0 {
		b := int(h[0] & (1<<16 - 1))
		c := &cs[b]
		set := c.run.Word
		if c.run.Fill {
			set = full(c.seg)
		}
		switch {
		case c.seg > at:
			return nil, fault(at, ^acc, "no bin")
		case c.seg < at:
			return nil, fault(c.seg, set, "two bins")
		case acc&set != 0:
			return nil, fault(at, acc&set, "two bins")
		case c.run.Fill:
			counts[b] += c.run.N * bitvec.SegmentBits
			at = c.end
		default:
			counts[b] += bits.OnesCount32(set)
			if acc |= set; acc == full(at) {
				at, acc = at+1, 0
			}
		}
		if c.next() {
			h[0] = uint64(c.seg)<<16 | uint64(b)
		} else {
			h[0], h = h[len(h)-1], h[:len(h)-1]
		}
		h.down(0)
	}
	if at < (n+bitvec.SegmentBits-1)/bitvec.SegmentBits {
		return nil, fault(at, ^acc, "no bin")
	}
	return counts, nil
}

// fault is the error for the lowest of the elements elems marks in segment s.
func fault(s int, elems uint32, where string) error {
	return fmt.Errorf("index: the bins are not a partition: element %d lies in %s", s*bitvec.SegmentBits+bits.TrailingZeros32(elems), where)
}

// tileCursor is one bin in the proof: its runs and the one in hand, which
// sets a bit over the segments [seg, end).
type tileCursor struct {
	rd       bitvec.RunReader
	run      bitvec.Run
	seg, end int
}

// next moves c to its bin's next run that sets a bit, if there is one.
func (c *tileCursor) next() bool {
	for r, ok := c.rd.NextRun(); ok; r, ok = c.rd.NextRun() {
		if c.seg, c.end = c.end, c.end+r.N; r.Fill && r.Bit == 1 || !r.Fill && r.Word != 0 {
			c.run = r
			return true
		}
	}
	return false
}

// cursorHeap is a min-heap of cursor keys: by segment, then bin.
type cursorHeap []uint64

func (h cursorHeap) down(i int) {
	for l := 2*i + 1; l < len(h); i, l = l, 2*l+1 {
		if l+1 < len(h) && h[l+1] < h[l] {
			l++
		}
		if h[l] >= h[i] {
			return
		}
		h[i], h[l] = h[l], h[i]
	}
}
