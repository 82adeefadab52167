package index

import (
	"fmt"

	"insitubits/internal/binning"
	"insitubits/internal/bitvec"
	"insitubits/internal/sim"
)

// MaxIDBins is the most bins an index can have: two bytes address 65 536
// bins, so BinIDs hold the ids of every index's elements.
const MaxIDBins = 1 << 16

// BinIDs is an index in decoded form, one bin id per element, in the
// narrowest unsigned width that holds a bin id: U8 for an index of at most
// 256 bins, U16 up to MaxIDBins — one or two bytes per element against the
// raw array's eight. Exactly one of the two arrays is non-nil. The ids are a
// pure function of the bitmaps, and the bitmaps of the ids: MapIDs computes
// them from the raw array for ScanIDs to scan, DecodeBinIDs recovers them
// from the finished index, to the same bytes. Their runs (Runs) are the
// smaller form selection scores by and FromRuns encodes.
type BinIDs struct {
	U8   []uint8
	U16  []uint16
	Bins int // of the index the ids belong to
}

// newBinIDs returns a zeroed id array for n elements over the given number
// of bins; more than MaxIDBins bins is a caller's bug, and panics.
func newBinIDs(n, bins int) *BinIDs {
	switch {
	case bins <= 1<<8:
		return &BinIDs{U8: make([]uint8, n), Bins: bins}
	case bins <= MaxIDBins:
		return &BinIDs{U16: make([]uint16, n), Bins: bins}
	default:
		panic(fmt.Sprintf("index: a %d-bin mapper, more than %d", bins, MaxIDBins))
	}
}

// Len is the number of elements.
func (ids *BinIDs) Len() int { return len(ids.U8) + len(ids.U16) }

// At is element k's bin id, at whichever width the array has.
func (ids *BinIDs) At(k int) int {
	if ids.U8 != nil {
		return int(ids.U8[k])
	}
	return int(ids.U16[k])
}

// SizeBytes is the array's in-memory size; nil ids hold nothing.
func (ids *BinIDs) SizeBytes() int {
	if ids == nil {
		return 0
	}
	return len(ids.U8) + 2*len(ids.U16)
}

// MapIDs bins data under m, element ranges split over nWorkers goroutines:
// the only part of a build that reads the raw array. A mapper of more than
// MaxIDBins bins panics.
func MapIDs(data []float64, m binning.Mapper, nWorkers int) *BinIDs {
	return MapIDsInto(nil, data, m, nWorkers)
}

// MapIDsInto is MapIDs into ids when they hold as many elements as data at
// the width of m's ids; other ids, nil included, are left alone and new ones
// are made.
func MapIDsInto(ids *BinIDs, data []float64, m binning.Mapper, nWorkers int) *BinIDs {
	if ids == nil || ids.Len() != len(data) || (ids.U8 != nil) != (m.Bins() <= 1<<8) || m.Bins() > MaxIDBins {
		ids = newBinIDs(len(data), m.Bins())
	}
	if ids.U8 != nil {
		mapIDs(m, ids.U8, data, nWorkers)
	} else {
		mapIDs(m, ids.U16, data, nWorkers)
	}
	ids.Bins = m.Bins()
	return ids
}

func mapIDs[T uint8 | uint16](m binning.Mapper, dst []T, data []float64, nWorkers int) {
	sim.ParallelFor(len(data), nWorkers, func(lo, hi int) {
		binning.BinInto(m, dst[lo:hi], data[lo:hi])
	})
}

// DecodeBinIDs decodes x into a BinIDs of its own, bins striped over
// nWorkers goroutines: the bins tile the elements, so each position is
// written once, in O(n + encoded size) in all.
func DecodeBinIDs(x *Index, nWorkers int) *BinIDs {
	ids := newBinIDs(x.n, len(x.vecs))
	if ids.U8 != nil {
		decodeIDs(x, ids.U8, nWorkers)
	} else {
		decodeIDs(x, ids.U16, nWorkers)
	}
	return ids
}

// decodeIDs writes the id of every occupied bin of x over its elements'
// positions in dst: the one id decoder, at either width.
func decodeIDs[T uint8 | uint16](x *Index, dst []T, nWorkers int) {
	nWorkers = max(1, min(nWorkers, len(x.vecs)))
	sim.ParallelEach(nWorkers, func(w int) {
		for b := w; b < len(x.vecs); b += nWorkers {
			if x.counts[b] != 0 {
				bitvec.WriteIDs(x.vecs[b], dst, T(b))
			}
		}
	})
}

// Runs is an array's bin ids as its run stream: run k holds the id U8[k]
// (U16[k] above 256 bins, as in BinIDs) over the elements from End[k-1] (0
// for the first run) up to End[k], in element order. Ends strictly rise; a
// run's neighbour may hold the same id where a stream was cut, which changes
// no element. On a spatially coherent field it is a fraction of the ids:
// about a third of a byte per element on heat3d, against one.
type Runs struct {
	U8   []uint8
	U16  []uint16
	End  []uint32
	Bins int // of the index the ids belong to
}

// Len is the number of elements.
func (r *Runs) Len() int {
	if len(r.End) == 0 {
		return 0
	}
	return int(r.End[len(r.End)-1])
}

// SizeBytes is the stream's in-memory size; a nil stream holds nothing.
func (r *Runs) SizeBytes() int {
	if r == nil {
		return 0
	}
	return len(r.U8) + 2*len(r.U16) + 4*len(r.End)
}

// Histogram is the stream's per-id element sum: the element count of every
// bin, the counts of the index FromRuns builds from it.
func (r *Runs) Histogram() []int {
	h := make([]int, r.Bins)
	if r.U8 != nil {
		addRunLengths(h, r.U8, r.End)
	} else {
		addRunLengths(h, r.U16, r.End)
	}
	return h
}

func addRunLengths[T uint8 | uint16](h []int, ids []T, end []uint32) {
	from := uint32(0)
	for k, b := range ids {
		h[b] += int(end[k] - from)
		from = end[k]
	}
}

// joinRuns concatenates the streams of lists, which cover consecutive
// element ranges of ids, into one of its own, at the id width of bins.
func joinRuns[T uint8 | uint16](ids []T, lists []*runList, bins int) *Runs {
	r := &Runs{Bins: bins}
	if bins <= 1<<8 {
		r.U8, r.End = gatherRuns[uint8](ids, lists)
	} else {
		r.U16, r.End = gatherRuns[uint16](ids, lists)
	}
	return r
}

// gatherRuns reads each run's id from ids at its start. A run cut where one
// list ends and the next begins is joined again, so the stream does not
// depend on how many workers found it. The stream is copied out at its
// exact size, and the lists keep their buffers for the pool.
func gatherRuns[O, T uint8 | uint16](ids []T, lists []*runList) ([]O, []uint32) {
	total := 0
	for _, rl := range lists {
		total += len(rl.ends)
	}
	out, end := make([]O, 0, total), make([]uint32, 0, total)
	for _, rl := range lists {
		from, ends := rl.base, rl.ends
		if len(end) > 0 && ids[from] == ids[from-1] { // the previous list's last run goes on
			end[len(end)-1], from, ends = ends[0], int(ends[0]), ends[1:]
		}
		for _, to := range ends {
			out, end, from = append(out, O(ids[from])), append(end, to), int(to)
		}
	}
	return out, end
}
