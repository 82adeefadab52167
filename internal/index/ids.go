package index

import (
	"insitubits/internal/binning"
	"insitubits/internal/bitvec"
	"insitubits/internal/sim"
)

// MaxIDBins is the most bins an index can have for BinIDs to hold its
// elements' ids: two bytes address 65 536 bins.
const MaxIDBins = 1 << 16

// BinIDs is an index in decoded form, one bin id per element, in the
// narrowest unsigned width that holds a bin id: U8 for an index of at most
// 256 bins, U16 up to MaxIDBins — one or two bytes per element against the
// raw array's eight. Exactly one of the two arrays is non-nil. The ids are a
// pure function of the bitmaps, and the bitmaps of the ids: MapIDs computes
// them from the raw array for BuildFromIDs to index, DecodeBinIDs recovers
// them from the finished index, to the same bytes.
type BinIDs struct {
	U8   []uint8
	U16  []uint16
	Bins int // of the index the ids belong to
}

// newBinIDs returns a zeroed id array for n elements over the given number
// of bins, or nil above MaxIDBins.
func newBinIDs(n, bins int) *BinIDs {
	switch {
	case bins <= 1<<8:
		return &BinIDs{U8: make([]uint8, n), Bins: bins}
	case bins <= MaxIDBins:
		return &BinIDs{U16: make([]uint16, n), Bins: bins}
	default:
		return nil
	}
}

// Len is the number of elements.
func (ids *BinIDs) Len() int { return len(ids.U8) + len(ids.U16) }

// SizeBytes is the array's in-memory size; nil ids hold nothing.
func (ids *BinIDs) SizeBytes() int {
	if ids == nil {
		return 0
	}
	return len(ids.U8) + 2*len(ids.U16)
}

// MapIDs bins data under m, element ranges split over nWorkers goroutines:
// the only part of a build that reads the raw array. It returns nil when m
// has more than MaxIDBins bins.
func MapIDs(data []float64, m binning.Mapper, nWorkers int) *BinIDs {
	ids := newBinIDs(len(data), m.Bins())
	switch {
	case ids == nil:
	case ids.U8 != nil:
		mapIDs(m, ids.U8, data, nWorkers)
	default:
		mapIDs(m, ids.U16, data, nWorkers)
	}
	return ids
}

func mapIDs[T uint8 | uint16 | int32](m binning.Mapper, dst []T, data []float64, nWorkers int) {
	sim.ParallelFor(len(data), nWorkers, func(lo, hi int) {
		binning.BinInto(m, dst[lo:hi], data[lo:hi])
	})
}

// DecodeBinIDs decodes x into a BinIDs of its own, bins striped over
// nWorkers goroutines; it returns nil when x has more than MaxIDBins bins.
// More than one worker needs bins that partition the elements — true of
// every index built in this process — because overlapping bins would race
// on a position. The array starts zeroed and only x's own ids are written,
// in bin order on one worker, so an element no bin covers reads as bin 0,
// one several bins claim as the highest of them, and no id reaches x.Bins().
func DecodeBinIDs(x *Index, nWorkers int) *BinIDs {
	ids := newBinIDs(x.n, len(x.vecs))
	switch {
	case ids == nil:
	case ids.U8 != nil:
		decodeIDs(x, ids.U8, nWorkers)
	default:
		decodeIDs(x, ids.U16, nWorkers)
	}
	return ids
}

// decodeIDs writes the id of every occupied bin of x over its elements'
// positions in dst: the one id decoder, at any width.
func decodeIDs[T bitvec.ID](x *Index, dst []T, nWorkers int) {
	nWorkers = max(1, min(nWorkers, len(x.vecs)))
	sim.ParallelEach(nWorkers, func(w int) {
		for b := w; b < len(x.vecs); b += nWorkers {
			if x.counts[b] != 0 {
				bitvec.WriteIDs(x.vecs[b], dst, T(b))
			}
		}
	})
}
