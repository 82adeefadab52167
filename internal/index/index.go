// Package index builds and queries the paper's bitmap indices: one
// compressed bitvector per value bin (the low level of Figure 1), each bin
// encoded straight from the data's runs of equal bin ids, never held
// uncompressed (Algorithm 1), and the high-level interval vectors derived
// from them on first use, which value ORs read where they are cheaper.
package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
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
// Each bin holds a bitvec.Bitmap in the codec the build's policy or a later
// Recode chose for it. Its high level (Levels) is derived on first use.
type Index struct {
	mapper binning.Mapper
	vecs   []bitvec.Bitmap
	counts []int
	n      int
	gen    uint64
	levels atomic.Pointer[MultiLevel]
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

// Build generates the index on one core, every bin in WAH, from the runs of
// equal bin ids (BuildParallelCodec): a run is a few bits or a fill in one
// bin and nothing in the others. The bitmaps are Algorithm 1's (see
// BuildAlgorithm1), at O(values + runs) instead of O(values + segments×bins).
func Build(data []float64, m binning.Mapper) *Index {
	return BuildParallelCodec(data, m, 1, codec.WAH)
}

// BuildAlgorithm1 is a faithful transcription of the paper's Algorithm 1
// ("Generate_Bitmaps"): for every 31-element segment it materializes the
// uncompressed per-bin segment words and merges each — including the
// untouched all-zero ones — into the compressed result. Kept as the fidelity
// reference and the baseline of the dense-vs-run-build ablation bench.
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

// FromParts reassembles an Index from deserialized bitmaps, the store's read
// path: the file door, which refuses what no build makes. The shape must be
// one CheckShape allows, with one n-bit bitmap per bin of m, in any codecs,
// and the bins must tile the elements (tile).
func FromParts(m binning.Mapper, vecs []bitvec.Bitmap, n int) (*Index, error) {
	if err := CheckShape(uint64(n), len(vecs)); err != nil { // a negative n is huge
		return nil, err
	}
	if len(vecs) != m.Bins() {
		return nil, fmt.Errorf("index: %d vectors for %d bins", len(vecs), m.Bins())
	}
	for b, v := range vecs {
		if v.Len() != n {
			return nil, fmt.Errorf("index: bin %d covers %d bits, want %d", b, v.Len(), n)
		}
	}
	counts, err := tile(vecs, n)
	if err != nil {
		return nil, err
	}
	return &Index{mapper: m, vecs: vecs, counts: counts, n: n, gen: nextGeneration()}, nil
}

// BuildTwoPhase is the strawman Algorithm 1 replaces: materialize every
// bin's *uncompressed* bitvector first, then compress each in a second pass
// (bitvec.FromFlat). The paper rules this out for in-situ use because the
// uncompressed bitmaps occupy bins × n bits — potentially more than the
// data itself — while the run build holds O(runs). Kept as the
// streaming-vs-two-phase ablation baseline.
func BuildTwoPhase(data []float64, m binning.Mapper) *Index {
	nb := m.Bins()
	dense := make([][]uint64, nb)
	for b := range dense {
		dense[b] = make([]uint64, bitvec.FlatWords(len(data)))
	}
	for i, v := range data {
		b := m.Bin(v)
		dense[b][i/64] |= 1 << uint(i%64)
	}
	x := &Index{mapper: m, vecs: make([]bitvec.Bitmap, nb), counts: make([]int, nb), n: len(data), gen: nextGeneration()}
	for b := range dense {
		x.vecs[b] = bitvec.FromFlat(dense[b], len(data))
		x.counts[b] = bitvec.CountFlat(dense[b])
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
	x.levels.Store(nil) // the groups were derived from the old encodings
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

// SizeBytes returns the total compressed size of all bitvectors — the
// number that must stay well under the raw data size (paper: < 30 %).
func (x *Index) SizeBytes() int {
	total := 0
	for _, v := range x.vecs {
		total += v.SizeBytes()
	}
	return total
}

// BuildParallel is BuildParallelCodec with every bin in WAH.
func BuildParallel(data []float64, m binning.Mapper, nWorkers int) *Index {
	return BuildParallelCodec(data, m, nWorkers, codec.WAH)
}

// BuildParallelCodec is the one write path from raw values: MapIDs, ScanIDs,
// then FromRuns, over the same nWorkers goroutines. An index is a pure
// function of (bin ids, mapper), so only the ids or their run stream need
// travel from the raw array. The result equals Build(data, m).Recode(id) bit
// for bit. A mapper of more than MaxIDBins bins panics.
func BuildParallelCodec(data []float64, m binning.Mapper, nWorkers int, id codec.ID) *Index {
	return FromRuns(ScanIDs(MapIDs(data, m, nWorkers), m, nWorkers), m, nWorkers, id)
}

// checkIDs panics unless ids are m's: its bin count, at the width MapIDs
// gives that count — anything else, a mapper of more than MaxIDBins bins
// included, is a caller's bug.
func checkIDs(ids *BinIDs, m binning.Mapper) {
	if ids == nil || ids.Bins != m.Bins() || ids.Bins > MaxIDBins ||
		(ids.U8 != nil) != (ids.Bins <= 1<<8) || (ids.U16 != nil) != (ids.Bins > 1<<8) {
		panic(fmt.Sprintf("index: the ids do not belong to a %d-bin mapper", m.Bins()))
	}
}

// ScanIDs is the first half of a build: the run stream of ids (Runs), each
// of nWorkers goroutines scanning one element range and the ranges' streams
// joined, so the stream does not depend on the worker count. It reads each
// id once and places nothing; FromRuns makes the bitmaps of the stream, when
// they are wanted. Ids that are not the mapper's panic.
func ScanIDs(ids *BinIDs, m binning.Mapper, nWorkers int) *Runs {
	checkIDs(ids, m)
	if ids.U8 != nil {
		return scanIDs(ids.U8, ids.Bins, nWorkers)
	}
	return scanIDs(ids.U16, ids.Bins, nWorkers)
}

func scanIDs[T uint8 | uint16](ids []T, bins, nWorkers int) *Runs {
	nWorkers = max(1, min(nWorkers, len(ids)))
	lists := make([]*runList, nWorkers)
	sim.ParallelEach(nWorkers, func(w int) {
		lo, hi := w*len(ids)/nWorkers, (w+1)*len(ids)/nWorkers
		lists[w] = runLists.Get().(*runList)
		scanRuns(lists[w], ids[lo:hi], lo)
	})
	r := joinRuns(ids, lists, bins)
	for _, rl := range lists {
		runLists.Put(rl)
	}
	return r
}

// FromRuns is the second half of a build: the index of the array whose run
// stream r is, under m. Each of nWorkers goroutines places the runs of one
// share of the stream bin by bin — O(runs), reading no ids — and fromRuns
// encodes every bin. A stream that is not m's panics.
func FromRuns(r *Runs, m binning.Mapper, nWorkers int, id codec.ID) *Index {
	if r == nil || r.Bins != m.Bins() || len(r.U8)+len(r.U16) != len(r.End) {
		panic(fmt.Sprintf("index: the run stream does not belong to a %d-bin mapper", m.Bins()))
	}
	start := buildStart()
	runs := len(r.End)
	nWorkers = max(1, min(nWorkers, runs))
	lists := make([]*runList, nWorkers)
	sim.ParallelEach(nWorkers, func(w int) {
		lo, hi := w*runs/nWorkers, (w+1)*runs/nWorkers
		if r.U8 != nil {
			lists[w] = placeRuns(r.U8[lo:hi], r.End, lo, r.Bins)
		} else {
			lists[w] = placeRuns(r.U16[lo:hi], r.End, lo, r.Bins)
		}
	})
	tel.idRuns.Add(int64(runs))
	return fromRuns(m, lists, r.Len(), nWorkers, id, start)
}

// runList is one element range's runs of equal bin ids — what a spatially
// coherent field is made of — as the scan found them, in element order (each
// run's end; its id is the ids' at its start), and bin by bin, CSR style:
// bin b's (start, length) pairs are runs[2*at[b] : 2*at[b+1]]. Lists are
// pooled with their encoder's scratch, so a warm build allocates nothing but
// its bitmaps and its stream.
type runList struct {
	base   int // the element the list's range starts at
	ends   []uint32
	runs   []uint32
	at     []int
	counts []int // elements per bin
	enc    bitvec.RunEncoder
}

var runLists = sync.Pool{New: func() any { return new(runList) }}

// reset empties rl's layout for bins bins: at[b+1] is where bin b's runs
// are counted (open turns the counts into places).
func (rl *runList) reset(bins int) {
	rl.at = append(rl.at[:0], make([]int, bins+1)...)
	rl.counts = append(rl.counts[:0], make([]int, bins)...)
}

// open turns the per-bin run counts in at[1:] into each bin's first slot and
// sizes runs for them all; put then fills the slots, at[b+1] the cursor of
// bin b.
func (rl *runList) open() {
	total := 0
	for b, k := range rl.at[1:] {
		rl.at[b+1], total = total, total+k
	}
	rl.runs = slices.Grow(rl.runs[:0], 2*total)[:2*total]
}

// put places the run of elements [from, to) in bin b.
func (rl *runList) put(b int, from, to uint32) {
	c := rl.at[b+1]
	rl.runs[2*c], rl.runs[2*c+1] = from, to-from
	rl.at[b+1] = c + 1
	rl.counts[b] += int(to - from)
}

// placeRuns lays out runs lo on of a stream whose ends are end, their ids
// ids: one pass counts each bin's runs, one places them.
func placeRuns[T uint8 | uint16](ids []T, end []uint32, lo, bins int) *runList {
	rl := runLists.Get().(*runList)
	rl.reset(bins)
	for _, b := range ids {
		rl.at[int(b)+1]++
	}
	rl.open()
	from := uint32(0)
	if lo > 0 {
		from = end[lo-1]
	}
	for k, b := range ids {
		to := end[lo+k]
		rl.put(int(b), from, to)
		from = to
	}
	return rl
}

// scanRuns records in rl where the runs of ids, elements base on of the
// array, end.
func scanRuns[T uint8 | uint16](rl *runList, ids []T, base int) {
	if uint64(base+len(ids)) > math.MaxUint32 {
		panic("index: a build indexes at most 2³² elements")
	}
	rl.base, rl.ends = base, slices.Grow(rl.ends[:0], len(ids)/32)
	for i := 0; i < len(ids); {
		if k := len(rl.ends); k == cap(rl.ends) {
			// Room for as many runs again as the scan so far projects onto
			// the rest of the range, and an eighth: a fresh list grows once
			// or twice instead of by append's quarters.
			rl.ends = slices.Grow(rl.ends, int(float64(k)*float64(len(ids)-i)/float64(max(i, 1)))+k/8+16)
		}
		i = runEnd(ids, i)
		rl.ends = append(rl.ends, uint32(base+i))
	}
}

// runEnd returns the end of the run of ids that starts at i, one-byte ids
// eight a load: their XOR with the id broadcast is zero up to a change.
func runEnd[T uint8 | uint16](ids []T, i int) int {
	j := i + 1
	if u8, ok := any(ids).([]uint8); ok {
		for id := uint64(u8[i]) * 0x0101010101010101; j+8 <= len(u8); j += 8 {
			if d := binary.LittleEndian.Uint64(u8[j:]) ^ id; d != 0 {
				return j + bits.TrailingZeros64(d)/8
			}
		}
	}
	for j < len(ids) && ids[j] == ids[i] {
		j++
	}
	return j
}

// fromRuns is phase 2 of every build: nWorkers workers, each with one
// list's encoder, stripe the bins and encode each bin's runs, read from the
// lists in element order, exactly once; its count is the lists' sum. The
// lists go back to the pool. A non-zero start records the build's time.
func fromRuns(m binning.Mapper, lists []*runList, n, nWorkers int, id codec.ID, start time.Time) *Index {
	nb := m.Bins()
	x := &Index{mapper: m, vecs: make([]bitvec.Bitmap, nb), counts: make([]int, nb), n: n, gen: nextGeneration()}
	sim.ParallelEach(nWorkers, func(w int) {
		parts := make([][]uint32, len(lists))
		for b := w; b < nb; b += nWorkers {
			for i, rl := range lists {
				parts[i] = rl.runs[2*rl.at[b] : 2*rl.at[b+1]]
				x.counts[b] += rl.counts[b]
			}
			x.vecs[b] = codec.EncodeRuns(&lists[w].enc, id, n, parts...)
		}
	})
	for _, rl := range lists {
		runLists.Put(rl)
	}
	recordBuild(x, start)
	return x
}

// groupFanout is the fanout of the high level the query path reads: each
// group is the OR of four adjacent bins (the value-interval vectors of
// Figure 1). Four read the fewest words on the ocean's batch of the fanouts
// 2, 4 and 8 measured (EXPERIMENTS.md, "The cheaper side").
const groupFanout = 4

// MultiLevel couples a fine low-level index with a coarse high-level one
// (Figure 1's value-interval vectors). The high-level vectors are the ORs of
// their low-level children, each ORed in one flat buffer and encoded once
// under codec.Auto's policy, so they are derived rather than rebuilt from
// data. They are never stored.
type MultiLevel struct {
	Low  *Index
	High *Index
	G    *binning.Grouped
}

// BuildMultiLevel derives a high-level index with the given fanout from an
// existing low-level index. The low bins tile the elements, so a group's
// count is its children's sum.
func BuildMultiLevel(low *Index, fanout int) (*MultiLevel, error) {
	g, err := binning.NewGrouped(low.mapper, fanout)
	if err != nil {
		return nil, err
	}
	high := &Index{mapper: g, vecs: make([]bitvec.Bitmap, g.Bins()), counts: make([]int, g.Bins()), n: low.n, gen: nextGeneration()}
	buf := make([]uint64, bitvec.FlatWords(low.n))
	for h := 0; h < g.Bins(); h++ {
		lo, hi := g.Children(h)
		clear(buf)
		for b := lo; b < hi; b++ {
			low.vecs[b].OrInto(buf, 0, len(buf))
			high.counts[h] += low.counts[b]
		}
		high.vecs[h] = codec.Encode(bitvec.FromFlat(buf, low.n), codec.Auto)
	}
	return &MultiLevel{Low: low, High: high, G: g}, nil
}

// Levels returns the index's high level, groups of groupFanout bins, built
// on the first call and kept until Recode. Concurrent first calls may each
// build one; the first published is the one every caller gets.
func (x *Index) Levels() *MultiLevel {
	if ml := x.levels.Load(); ml != nil {
		return ml
	}
	ml, err := BuildMultiLevel(x, groupFanout)
	if err != nil {
		panic(err) // only a non-positive fanout fails
	}
	x.levels.CompareAndSwap(nil, ml)
	return x.levels.Load()
}

// Operand is one bitmap a value OR reads: the low bin Lo (Group -1), or
// the high-level group Group, which holds the low bins [Lo, Hi).
type Operand struct {
	Group  int
	Lo, Hi int
	Bitmap bitvec.Bitmap
}

// Cover is how a value OR is read: the OR of Ops, or, when Complement is
// set, the NOT of it, cleared at and past the index's N.
type Cover struct {
	Complement bool
	Ops        []Operand
	Words      int // the operands' encoded words (Bitmap.Words)
	n          int
}

// ChooseSide returns the cheaper cover of the OR of the occupied bins sel.
// Either side is covered the same way: a group replaces its children when
// every occupied child is on that side and the group encodes in fewer
// words than they do. The bins tile the elements, so the complement side —
// the occupied bins not in sel — holds exactly the elements sel does not;
// it is taken when it reads fewer words: one comparison, ties to sel. Its
// NOT costs a pass over the flat words the OR writes anyway, so no
// threshold is needed.
func (x *Index) ChooseSide(sel []int) Cover {
	ml := x.Levels()
	in := make([]bool, len(x.vecs))
	for _, b := range sel {
		in[b] = true
	}
	c := ml.cover(in, len(sel))
	for b := range in {
		in[b] = !in[b] && x.counts[b] > 0
	}
	if not := ml.cover(in, len(in)-len(sel)); not.Words < c.Words {
		not.Complement = true
		c = not
	}
	return c
}

// cover reads the occupied bins marked in, at most size of them, group by
// group.
func (ml *MultiLevel) cover(in []bool, size int) Cover {
	c := Cover{Ops: make([]Operand, 0, size), n: ml.Low.n}
	for h := 0; h < ml.High.Bins(); h++ {
		lo, hi := ml.G.Children(h)
		whole, words, k := true, 0, len(c.Ops)
		for b := lo; b < hi; b++ {
			switch {
			case ml.Low.counts[b] == 0:
			case in[b]:
				bm := ml.Low.vecs[b]
				c.Ops = append(c.Ops, Operand{Group: -1, Lo: b, Hi: b + 1, Bitmap: bm})
				words += bm.Words()
			default:
				whole = false
			}
		}
		if gw := ml.High.vecs[h].Words(); whole && len(c.Ops) > k && gw < words {
			c.Ops = append(c.Ops[:k], Operand{Group: h, Lo: lo, Hi: hi, Bitmap: ml.High.vecs[h]})
			words = gw
		}
		c.Words += words
	}
	return c
}

// Or writes the words [w0, w1) of the cover's value into dst, zero there:
// each operand ORed in, then, for a complement, the window's words NOT-ed
// and the bits at and past N cleared. It stops between operands once stop
// (nil: never) reports true, leaving the window unfinished.
func (c Cover) Or(dst []uint64, w0, w1 int, stop func() bool) {
	for _, op := range c.Ops {
		if stop != nil && stop() {
			return
		}
		op.Bitmap.OrInto(dst, w0, w1)
	}
	if !c.Complement {
		return
	}
	for w := w0; w < w1; w++ {
		dst[w] = ^dst[w]
	}
	if tail := c.n & 63; tail != 0 && w1 == bitvec.FlatWords(c.n) && w1 > w0 {
		dst[w1-1] &= 1<<tail - 1
	}
}
