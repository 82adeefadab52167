// Package index builds and queries the paper's bitmap indices: one
// compressed bitvector per value bin (the low level of Figure 1), optionally
// grouped into high-level interval vectors, generated in a single streaming
// pass over the data with in-place WAH compression (Algorithm 1).
package index

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"insitubits/internal/binning"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
	"insitubits/internal/sim"
)

// Index is a bitmap index over one array of values. The per-bin 1-counts —
// the value histogram — fall out of construction for free and are cached,
// because every information-theoretic metric in the paper starts from them.
// Each bin holds a bitvec.Bitmap of any codec: the builders stream WAH, and
// the codec builders (BuildCodec, BuildParallelCodec) or a later Recode
// apply a per-bin encoding policy to it.
type Index struct {
	mapper binning.Mapper
	vecs   []bitvec.Bitmap
	counts []int
	n      int
	gen    uint64
}

// genCounter issues process-unique index generations. Every constructor
// stamps a fresh one and Recode re-stamps, so a generation identifies one
// immutable bitmap state: cached intermediates (internal/bitcache) key on
// it and are invalidated when an in-situ step supersedes an index.
var genCounter atomic.Uint64

func nextGeneration() uint64 { return genCounter.Add(1) }

// Generation returns the identity of this index's current bitmap state.
// It changes whenever the bitmaps could differ: at construction and on
// every in-place Recode.
func (x *Index) Generation() uint64 { return x.gen }

// Build generates the index in one pass on one core, every bin in WAH,
// using the lazy builder (StreamBuilder): only bins touched by the current
// 31-element segment are visited, with untouched bins accumulating pending
// zero-fill. This is behaviourally identical to the paper's Algorithm 1 (see
// BuildAlgorithm1) but costs O(values + touched) instead of O(values +
// segments×bins).
func Build(data []float64, m binning.Mapper) *Index {
	return BuildParallelCodec(data, m, 1, codec.WAH)
}

// BuildAlgorithm1 is a faithful transcription of the paper's Algorithm 1
// ("Generate_Bitmaps"): for every 31-element segment it materializes the
// uncompressed per-bin segment words and merges each — including the
// untouched all-zero ones — into the compressed result. Kept as the fidelity
// reference and the baseline of the dense-vs-lazy ablation bench.
func BuildAlgorithm1(data []float64, m binning.Mapper) *Index {
	binNum := m.Bins()
	segments := make([]uint32, binNum)        // "Segments" of Algorithm 1
	result := make([]bitvec.Appender, binNum) // "Result" of Algorithm 1
	counts := make([]int, binNum)             // the histogram, tallied as segments merge
	id := 0
	for i := 0; i < len(data); i += bitvec.SegmentBits {
		for j := range segments { // line 5: initialize Segments to 0
			segments[j] = 0
		}
		width := 0
		for j := 0; j < bitvec.SegmentBits && i+j < len(data); j++ {
			vectorID := m.Bin(data[id]) // line 7: MapValueToID
			id++
			segments[vectorID] |= 1 << uint(j) // line 8
			width++
		}
		for j := 0; j < binNum; j++ { // lines 10-27: merge into Result
			counts[j] += bits.OnesCount32(segments[j])
			if width == bitvec.SegmentBits {
				result[j].AppendSegment(segments[j])
			} else {
				result[j].AppendPartial(segments[j], width)
			}
		}
	}
	idx := &Index{mapper: m, vecs: make([]bitvec.Bitmap, binNum), counts: counts, n: len(data), gen: nextGeneration()}
	for j := range result {
		idx.vecs[j] = result[j].Vector()
	}
	recordBuild(idx, time.Time{})
	return idx
}

// FromParts reassembles an Index from deserialized bitmaps (the store
// package's read path). Every bitmap must cover exactly n bits and there
// must be one per bin of the mapper; codecs may differ per bin.
func FromParts(m binning.Mapper, vecs []bitvec.Bitmap, n int) (*Index, error) {
	if len(vecs) != m.Bins() {
		return nil, fmt.Errorf("index: %d vectors for %d bins", len(vecs), m.Bins())
	}
	x := &Index{mapper: m, vecs: vecs, counts: make([]int, len(vecs)), n: n, gen: nextGeneration()}
	for b, v := range vecs {
		if v.Len() != n {
			return nil, fmt.Errorf("index: bin %d covers %d bits, want %d", b, v.Len(), n)
		}
		x.counts[b] = v.Count()
	}
	return x, nil
}

// BuildTwoPhase is the strawman Algorithm 1 replaces: materialize every
// bin's *uncompressed* bitvector first, then compress in a second pass.
// The paper rules this out for in-situ use because the uncompressed bitmaps
// occupy bins × n bits — potentially more than the data itself — while the
// streaming builder never holds more than one 31-bit segment per bin.
// Kept as the streaming-vs-two-phase ablation baseline.
func BuildTwoPhase(data []float64, m binning.Mapper) *Index {
	nb := m.Bins()
	words := (len(data) + 63) / 64
	dense := make([][]uint64, nb)
	for b := range dense {
		dense[b] = make([]uint64, words)
	}
	for i, v := range data {
		b := m.Bin(v)
		dense[b][i/64] |= 1 << uint(i%64)
	}
	x := &Index{mapper: m, vecs: make([]bitvec.Bitmap, nb), counts: make([]int, nb), n: len(data), gen: nextGeneration()}
	for b := range dense {
		var a bitvec.Appender
		for i := 0; i < len(data); i += bitvec.SegmentBits {
			var seg uint32
			width := len(data) - i
			if width > bitvec.SegmentBits {
				width = bitvec.SegmentBits
			}
			for j := 0; j < width; j++ {
				p := i + j
				if dense[b][p/64]&(1<<uint(p%64)) != 0 {
					seg |= 1 << uint(j)
				}
			}
			x.counts[b] += bits.OnesCount32(seg)
			if width == bitvec.SegmentBits {
				a.AppendSegment(seg)
			} else {
				a.AppendPartial(seg, width)
			}
		}
		x.vecs[b] = a.Vector()
	}
	recordBuild(x, time.Time{})
	return x
}

// N returns the number of indexed elements.
func (x *Index) N() int { return x.n }

// Bins returns the number of bins (bitvectors).
func (x *Index) Bins() int { return len(x.vecs) }

// Mapper returns the binning used to build the index.
func (x *Index) Mapper() binning.Mapper { return x.mapper }

// Bitmap returns the bitmap of bin b (shared, do not mutate).
func (x *Index) Bitmap(b int) bitvec.Bitmap { return x.vecs[b] }

// Codec reports the encoding of bin b.
func (x *Index) Codec(b int) codec.ID { return codec.Of(x.vecs[b]) }

// Recode re-encodes every bin under the given codec (codec.Auto applies
// the adaptive per-bin policy). Bins already in the target encoding are
// untouched; the index is modified in place and returned for chaining.
func (x *Index) Recode(id codec.ID) *Index {
	for b := range x.vecs {
		x.vecs[b] = codec.Encode(x.vecs[b], id)
	}
	// The bitmaps were replaced in place: retire the old generation so no
	// cached intermediate derived from them can be served against the new
	// encodings (logically equal, but physically different objects).
	x.gen = nextGeneration()
	return x
}

// BuildCodec builds the index on one core, each bin encoded under the given
// policy as it is finished.
func BuildCodec(data []float64, m binning.Mapper, id codec.ID) *Index {
	return BuildParallelCodec(data, m, 1, id)
}

// Count returns the cached number of elements in bin b.
func (x *Index) Count(b int) int {
	tel.cacheHits.Inc()
	return x.counts[b]
}

// Histogram returns the per-bin element counts (shared slice; copy to mutate).
func (x *Index) Histogram() []int { return x.counts }

// BinIDs decodes the index into a per-element bin-id array: out[i] is the
// bin containing element i. One pass over the compressed vectors (every
// element is set in exactly one bin, so the total decode work is O(n)).
// This powers the scale-robust joint-histogram path: at reproduction scale
// bins² compressed ANDs can exceed an O(n) decode, while both use only the
// bitmaps and produce identical numbers.
func (x *Index) BinIDs(dst []int32) []int32 {
	if len(dst) != x.n {
		dst = make([]int32, x.n)
	}
	decodeIDs(x, dst, 1)
	return dst
}

// SizeBytes returns the total compressed size of all bitvectors — the
// number that must stay well under the raw data size (paper: < 30 %).
func (x *Index) SizeBytes() int {
	total := 0
	for _, v := range x.vecs {
		total += v.SizeBytes()
	}
	return total
}

// Query returns the bitvector of elements whose value lies in [lo, hi),
// OR-ing together every bin overlapping the range. Bins straddling the
// endpoints are included whole (bin-granular semantics, as in the paper).
func (x *Index) Query(lo, hi float64) bitvec.Bitmap {
	tel.queries.Inc()
	if tel.orMergeNs != nil {
		start := time.Now()
		defer func() { tel.orMergeNs.Record(time.Since(start).Nanoseconds()) }()
	}
	var acc bitvec.Bitmap
	for b := 0; b < x.Bins(); b++ {
		if x.mapper.High(b) <= lo || x.mapper.Low(b) >= hi {
			continue
		}
		if acc == nil {
			acc = x.vecs[b]
		} else {
			acc = acc.Or(x.vecs[b])
		}
	}
	if acc == nil {
		return bitvec.FromBools(make([]bool, x.n))
	}
	return acc
}

// StreamBuilder incrementally indexes a stream of values — the in-situ
// generation path, where simulation output is consumed segment by segment
// and immediately discarded (paper §2.3 "Online Compression"). Each bin
// holds a compressed appender plus a pending count of all-zero segments, so
// a segment only costs work proportional to the bins it actually touches.
type StreamBuilder struct {
	mapper  binning.Mapper
	apps    []bitvec.Appender
	counts  []int // set bits per bin: the histogram, tallied as segments flush
	segs    []uint32
	touched []int32
	width   int // elements in the current (unflushed) segment
	nSegs   int // full segments flushed so far
	n       int
}

// NewStreamBuilder returns an empty builder for the given binning.
func NewStreamBuilder(m binning.Mapper) *StreamBuilder {
	nb := m.Bins()
	return &StreamBuilder{
		mapper: m,
		apps:   make([]bitvec.Appender, nb),
		counts: make([]int, nb),
		segs:   make([]uint32, nb),
	}
}

// Append indexes a chunk of values; chunks of any size may be appended. They
// are mapped a fixed on-stack batch at a time, at the width of any bin count.
func (sb *StreamBuilder) Append(data []float64) {
	var batch [512]int32
	for len(data) > 0 {
		k := min(len(data), len(batch))
		binning.BinInto(sb.mapper, batch[:k], data[:k])
		appendBins(sb, batch[:k])
		data = data[k:]
	}
}

// appendBins sets one bit per element in the bin its id names: the one
// bit-setting loop every builder of this file ends in.
func appendBins[T bitvec.ID](sb *StreamBuilder, ids []T) {
	for _, b := range ids {
		if sb.segs[b] == 0 {
			sb.touched = append(sb.touched, int32(b))
		}
		sb.segs[b] |= 1 << uint(sb.width)
		sb.width++
		if sb.width == bitvec.SegmentBits {
			sb.flushSegment()
		}
	}
	sb.n += len(ids)
}

// flushSegment merges the current 31-element segment into each touched bin.
// A touched bin that fell behind (untouched for some segments) first catches
// up with one zero-fill run, so untouched bins cost nothing per segment —
// the lazy improvement over Algorithm 1's dense merge loop.
func (sb *StreamBuilder) flushSegment() {
	for _, b := range sb.touched {
		if gap := sb.nSegs - sb.apps[b].Len()/bitvec.SegmentBits; gap > 0 {
			sb.apps[b].AppendFill(0, gap)
		}
		sb.apps[b].AppendSegment(sb.segs[b])
		sb.counts[b] += bits.OnesCount32(sb.segs[b])
		sb.segs[b] = 0
	}
	sb.touched = sb.touched[:0]
	sb.nSegs++
	sb.width = 0
}

// Finish flushes the trailing partial segment and outstanding zero runs and
// returns the completed index. The builder must not be reused afterwards.
func (sb *StreamBuilder) Finish() *Index {
	sb.flush()
	x := &Index{mapper: sb.mapper, vecs: make([]bitvec.Bitmap, len(sb.apps)), counts: sb.counts, n: sb.n, gen: nextGeneration()}
	for b := range sb.apps {
		x.vecs[b] = sb.apps[b].Vector()
	}
	recordBuild(x, time.Time{})
	return x
}

// flush brings every bin's appender to the builder's full length: the
// outstanding zero runs and the trailing partial segment.
func (sb *StreamBuilder) flush() {
	for _, b := range sb.touched {
		sb.counts[b] += bits.OnesCount32(sb.segs[b])
	}
	for b := range sb.apps {
		if gap := sb.nSegs - sb.apps[b].Len()/bitvec.SegmentBits; gap > 0 {
			sb.apps[b].AppendFill(0, gap)
		}
		if sb.width > 0 {
			// An untouched bin's pending segment is zero.
			sb.apps[b].AppendPartial(sb.segs[b], sb.width)
		}
	}
}

// SizeBytes reports the compressed bytes accumulated so far — the in-situ
// memory footprint of the partially built index.
func (sb *StreamBuilder) SizeBytes() int {
	total := 0
	for i := range sb.apps {
		total += sb.apps[i].SizeBytes()
	}
	return total
}

// BuildParallel is BuildParallelCodec with every bin left in the WAH the
// builders stream.
func BuildParallel(data []float64, m binning.Mapper, nWorkers int) *Index {
	return BuildParallelCodec(data, m, nWorkers, codec.WAH)
}

// BuildParallelCodec is the in-situ write path from raw values: MapIDs, then
// BuildFromIDs, over the same nWorkers goroutines. The result equals
// Build(data, m).Recode(id) bit for bit.
func BuildParallelCodec(data []float64, m binning.Mapper, nWorkers int, id codec.ID) *Index {
	x, _ := BuildParallelCodecIDs(data, m, nWorkers, id)
	return x
}

// BuildParallelCodecIDs is BuildParallelCodec that also hands back the ids
// the index was built from; they equal DecodeBinIDs of it. Above MaxIDBins
// bins there are none (nil): the build maps into wide ids nobody keeps.
func BuildParallelCodecIDs(data []float64, m binning.Mapper, nWorkers int, id codec.ID) (*Index, *BinIDs) {
	start := buildStart()
	ids := MapIDs(data, m, nWorkers)
	if ids == nil {
		wide := make([]int32, len(data))
		mapIDs(m, wide, data, nWorkers)
		return buildParallel(wide, m, nWorkers, id, start), nil
	}
	return ids.build(m, nWorkers, id, start), ids
}

// BuildFromIDs builds the index of the array whose elements' bins ids names:
// an index is a pure function of (bin ids, mapper), so whoever holds the raw
// array maps it (MapIDs) and only the ids — one or two bytes per element —
// travel to the build. Ids that are not the mapper's — another bin count, or
// not the width MapIDs gives that count — are a caller's bug and panic before
// anything is indexed.
func BuildFromIDs(ids *BinIDs, m binning.Mapper, nWorkers int, id codec.ID) *Index {
	if ids == nil || ids.Bins != m.Bins() || ids.Bins > MaxIDBins ||
		(ids.U8 != nil) != (ids.Bins <= 1<<8) || (ids.U16 != nil) != (ids.Bins > 1<<8) {
		panic(fmt.Sprintf("index: BuildFromIDs: the ids do not belong to a %d-bin mapper", m.Bins()))
	}
	return ids.build(m, nWorkers, id, buildStart())
}

func (ids *BinIDs) build(m binning.Mapper, nWorkers int, id codec.ID, start time.Time) *Index {
	if ids.U8 != nil {
		return buildParallel(ids.U8, m, nWorkers, id, start)
	}
	return buildParallel(ids.U16, m, nWorkers, id, start)
}

// buildParallel is the build, in two parallel phases over the same nWorkers
// goroutines. First the ids are partitioned into sub-blocks aligned to the
// 31-bit segment size and each is streamed into per-bin WAH by its own
// builder — the paper's Figure 2, where each bitmap-generation core owns one
// sub-block. Then the workers stripe the bins: a bin's sub-block vectors are
// joined into one presized vector (alignment makes the join exact), its
// count summed from the builders' tallies, and encoded under the policy.
// Every bin is encoded exactly once and the index is
// stamped with one generation. A non-zero start records the build's wall
// time from there.
func buildParallel[T bitvec.ID](ids []T, m binning.Mapper, nWorkers int, id codec.ID, start time.Time) *Index {
	nSegs := (len(ids) + bitvec.SegmentBits - 1) / bitvec.SegmentBits
	nWorkers = max(1, min(nWorkers, nSegs))
	bound := func(w int) int { // first element of sub-block w
		return min(w*nSegs/nWorkers*bitvec.SegmentBits, len(ids))
	}
	subs := make([]*StreamBuilder, nWorkers)
	sim.ParallelEach(nWorkers, func(w int) {
		subs[w] = NewStreamBuilder(m)
		appendBins(subs[w], ids[bound(w):bound(w+1)])
		subs[w].flush()
	})
	nb := m.Bins()
	x := &Index{mapper: m, vecs: make([]bitvec.Bitmap, nb), counts: make([]int, nb), n: len(ids), gen: nextGeneration()}
	sim.ParallelEach(nWorkers, func(w int) {
		parts := make([]bitvec.Bitmap, nWorkers)
		for b := w; b < nb; b += nWorkers {
			for i, sb := range subs {
				parts[i] = sb.apps[b].Vector()
				x.counts[b] += sb.counts[b]
			}
			x.vecs[b] = codec.Encode(bitvec.MustConcat(parts...), id)
		}
	})
	recordBuild(x, start)
	return x
}

// MultiLevel couples a fine low-level index with a coarse high-level one
// (Figure 1's value-interval vectors). The high-level vectors are the ORs of
// their low-level children, so they are derived rather than rebuilt from
// data.
type MultiLevel struct {
	Low  *Index
	High *Index
	G    *binning.Grouped
}

// BuildMultiLevel derives a high-level index with the given fanout from an
// existing low-level index.
func BuildMultiLevel(low *Index, fanout int) (*MultiLevel, error) {
	g, err := binning.NewGrouped(low.mapper, fanout)
	if err != nil {
		return nil, err
	}
	high := &Index{mapper: g, vecs: make([]bitvec.Bitmap, g.Bins()), counts: make([]int, g.Bins()), n: low.n, gen: nextGeneration()}
	for h := 0; h < g.Bins(); h++ {
		lo, hi := g.Children(h)
		var acc bitvec.Bitmap = low.vecs[lo]
		for b := lo + 1; b < hi; b++ {
			acc = acc.Or(low.vecs[b])
		}
		high.vecs[h] = acc
		c := 0
		for b := lo; b < hi; b++ {
			c += low.counts[b]
		}
		high.counts[h] = c
	}
	return &MultiLevel{Low: low, High: high, G: g}, nil
}
