package query

import (
	"fmt"
	"sync"

	"insitubits/internal/bitvec"
	"insitubits/internal/index"
	"insitubits/internal/metrics"
)

// The operators: each is the single implementation of its query, reporting
// under a profile node that is nil on the plain path (every recorder hook
// no-ops), and takes a validated request. ANALYZE accounting convention: an
// operator is charged one full scan of each encoded operand it consumes
// (bitvec's kernels are not instrumented — that would tax the hot loops the
// <2% overhead budget protects; the operands' physical composition is the
// same number, read after the fact via Stats), and flatCost for each pass
// over a flat buffer. Operators check the request's context between kernel
// calls, never inside one, and not where no bitmap is read.

func (e *executor) bits(req *Request, x *index.Index) (bitvec.Bitmap, error) {
	e.plan, e.cache = lower(req, x, nil), cacheFrom(e.ctx)
	words, v, err := e.result(e.prof, e.sp)
	if err != nil {
		return nil, err
	}
	if v == nil {
		v = bitvec.FromFlat(words, x.N())
	}
	if e.prof != nil {
		e.prof.setOut(v)
		e.prof.setRows(v.Count())
	}
	return v, nil
}

// binCounts runs the shared per-bin counting loop of Count/Sum/Quantile/
// MinMax: for each value-selected bin, the subset count — from the cached
// per-bin cardinality when there is no spatial restriction (no bitmap is
// touched), else by scanning the bin's bitmap over the element range.
// visit receives every selected bin with its count, in bin order (Quantile
// and MinMax depend on it). A bin with zero cached cardinality contributes
// nothing to any count, so it is pruned and its bitmap never scanned.
func (e *executor) binCounts(x *index.Index, s Subset, prof *Node, visit func(b, c int)) (err error) {
	lo, hi := s.spatialBounds(x.N())
	o := openOperator(prof, e.sp, "bin-counts")
	cached, pruned := 0, 0
	for b := 0; b < x.Bins() && err == nil; b++ {
		switch {
		case !s.binSelected(x, b):
		case x.Count(b) == 0:
			pruned++
		case !s.hasSpatial():
			cached++
			o.bins++
			c := x.Count(b)
			if n := prof.child("cached-count", ""); n != nil {
				n.Bin = b
				n.Codec = x.Codec(b).String()
				n.setRows(c)
			}
			visit(b, c)
		default:
			if err = e.ctx.Err(); err == nil {
				c := x.Bitmap(b).CountRange(lo, hi)
				o.scan("count-range", x, b).setRows(c)
				visit(b, c)
			}
		}
	}
	if pruned > 0 {
		prof.child("prune", fmt.Sprintf("skipped %d empty bins", pruned))
	}
	if o.span != nil {
		o.span.SetAttrInt("cached_counts", int64(cached))
		o.span.SetAttrInt("scanned_bins", int64(o.bins-cached))
	}
	o.end()
	return err
}

func (e *executor) count(x *index.Index, s Subset) (int, error) {
	total := 0
	err := e.binCounts(x, s, e.prof, func(b, c int) { total += c })
	e.prof.setRows(total)
	return total, err
}

// add folds c elements of bin b into the aggregate: midpoint estimate,
// bin-edge bounds.
func (a *Aggregate) add(x *index.Index, b, c int) {
	if c == 0 {
		return
	}
	bl, bh := x.Mapper().Low(b), x.Mapper().High(b)
	a.Count += c
	a.Estimate += float64(c) * (bl + bh) / 2
	a.Lo += float64(c) * bl
	a.Hi += float64(c) * bh
}

// mean divides a sum aggregate by its count.
func (a Aggregate) mean() Aggregate {
	if a.Count == 0 {
		return Aggregate{}
	}
	n := float64(a.Count)
	return Aggregate{Count: a.Count, Estimate: a.Estimate / n, Lo: a.Lo / n, Hi: a.Hi / n}
}

// binAggregate is the aggregate of total elements whose statistic falls in
// bin b: the bin's midpoint, bounded by its edges.
func binAggregate(x *index.Index, b, total int) Aggregate {
	bl, bh := x.Mapper().Low(b), x.Mapper().High(b)
	return Aggregate{Count: total, Estimate: (bl + bh) / 2, Lo: bl, Hi: bh}
}

func (e *executor) sum(x *index.Index, s Subset, prof *Node) (Aggregate, error) {
	var agg Aggregate
	err := e.binCounts(x, s, prof, func(b, c int) { agg.add(x, b, c) })
	prof.setRows(agg.Count)
	return agg, err
}

func (e *executor) quantile(x *index.Index, s Subset, q float64) (Aggregate, error) {
	counts := make([]int, x.Bins())
	total := 0
	err := e.binCounts(x, s, e.prof, func(b, c int) {
		counts[b] = c
		total += c
	})
	e.prof.setRows(total)
	if err != nil || total == 0 {
		return Aggregate{}, err
	}
	// Rank of the quantile element (1-based), clamped into [1, total].
	rank := int(q*float64(total-1)) + 1
	cum := 0
	for b := 0; b < x.Bins(); b++ {
		cum += counts[b]
		if cum >= rank {
			if n := e.prof.child("rank-scan", fmt.Sprintf("rank %d of %d", rank, total)); n != nil {
				n.Bin = b
			}
			return binAggregate(x, b, total), nil
		}
	}
	return Aggregate{}, fmt.Errorf("query: internal: rank %d beyond %d elements", rank, total)
}

func (e *executor) minMax(x *index.Index, s Subset) (min, max Aggregate, err error) {
	first, last := -1, -1
	total := 0
	err = e.binCounts(x, s, e.prof, func(b, c int) {
		if c == 0 {
			return
		}
		if first < 0 {
			first = b
		}
		last = b
		total += c
	})
	e.prof.setRows(total)
	if err != nil || first < 0 {
		return Aggregate{}, Aggregate{}, err
	}
	return binAggregate(x, first, total), binAggregate(x, last, total), nil
}

// maskedAgg aggregates the elements of subset s of x that a caller's mask
// keeps (SumMasked, Masked.Sum): the mask is ORed once into flat scratch
// over s's spatial words, and each selected bin counts its elements under it.
func (e *executor) maskedAgg(op string, x *index.Index, mask bitvec.Bitmap, s Subset) (agg Aggregate, err error) {
	lo, hi := s.spatialBounds(x.N())
	w0, w1 := lo>>6, bitvec.FlatWords(hi)
	flat := e.flat(x.N())
	mask.OrInto(flat, w0, w1)
	bitvec.KeepFlatRange(flat, lo, hi)
	e.prof.child("mask", "the caller's bitmap, ORed once").scanOperand(mask)
	o := openOperator(e.prof, e.sp, op)
	for _, b := range s.occupiedBins(x) {
		if err = e.ctx.Err(); err != nil {
			break
		}
		c := bitvec.CountMasked(x.Bitmap(b), flat[:w1], w0)
		o.scan(op, x, b).setRows(c)
		agg.add(x, b, c)
	}
	e.prof.setRows(agg.Count)
	o.end()
	return agg, err
}

// phase names one of the correlation's two phases after the mask — its
// operator, the leaf each bin it reads reports as, and the index (A or B)
// those bins belong to — for the executor and EXPLAIN alike.
type phase struct{ op, detail, leaf, side string }

var (
	decodePhase = phase{"decode-b", "bin ids of B's value-selected occupied bins, stored at the mask's elements", "ids", "B"}
	jointPhase  = phase{"joint", "A's value-selected occupied bins tallied over the mask, a row each", "tally", "A"}
)

// correlation answers the §4.1 query in work proportional to the subset. The
// mask is planned and executed like any bits-shaped request; each selected
// bin of B stores its id at the elements it shares with the mask, and each
// selected bin of A tallies the ids at the elements it shares with the mask
// into its row of the joint distribution; both phases walk the mask's words
// from its first set one to its last, in parallel windows. The id array is
// all NoID between requests and the bins tile the elements, so each store
// finds NoID and each tally an id; a kernel that finds otherwise is an
// internal error, and the array is dropped.
func (e *executor) correlation(req *Request, xa, xb *index.Index) (metrics.Pair, error) {
	e.plan, e.cache = lower(req, xa, xb), cacheFrom(e.ctx)
	mn := e.prof.child("mask", "elements satisfying both predicates")
	msp := e.sp.Child("mask")
	mask, hit, err := e.result(mn, msp)
	msp.End()
	if err != nil {
		return metrics.Pair{}, err
	}
	if mask == nil {
		mask = e.flat(xa.N())
		e.par(0, len(mask), func(lo, hi int) { hit.OrInto(mask, lo, hi) })
	}
	n := bitvec.CountFlat(mask)
	mn.setRows(n)
	if n == 0 {
		return metrics.Pair{}, nil
	}
	w0, w1 := 0, len(mask) // no bin is walked outside the mask's first and last elements
	for mask[w0] == 0 {
		w0++
	}
	for mask[w1-1] == 0 {
		w1--
	}
	ids := idFree.get(xa.N(), bitvec.NoID[int32]())
	na, nb := xa.Bins(), xb.Bins()
	_, err = e.overMask(decodePhase, xb, req.B, w0, w1, func(w *maskWindow, b int, bm bitvec.Bitmap) (int, int) {
		return bitvec.WriteIDsMasked(bm, mask[:w.hi], *ids, int32(b), w.lo)
	})
	var windows []*maskWindow
	if err == nil {
		windows, err = e.overMask(jointPhase, xa, req.A, w0, w1, func(w *maskWindow, a int, bm bitvec.Bitmap) (int, int) {
			if w.cells == nil {
				w.cells = make([]int, na*nb)
			}
			return bitvec.TallyMasked(bm, mask[:w.hi], *ids, w.cells[a*nb:(a+1)*nb], w.lo)
		})
	}
	if err != nil {
		return metrics.Pair{}, err // ids is not all NoID again: dropped
	}
	idFree.put(ids)
	// A tally counts the cells it increments: marginals are the table's sums.
	cells, ha, hb := make([]int, na*nb), make([]int, na), make([]int, nb)
	for _, w := range windows {
		for i, c := range w.cells {
			cells[i] += c
			ha[i/nb] += c
			hb[i%nb] += c
		}
	}
	joint := make([][]int, na)
	for a := range joint {
		joint[a] = cells[a*nb : (a+1)*nb]
	}
	e.prof.setRows(n)
	return metrics.PairFromJoint(joint, ha, hb, n), nil
}

// maskWindow is a worker's share of a phase: mask words [lo, hi), the first
// element a kernel found the id array wrong at (-1: none), its cells.
type maskWindow struct {
	lo, hi, bad int
	cells       []int
}

// overMask runs one phase of a correlation: kernel over every value-selected
// occupied bin of x in each window of the mask's words [w0, w1).
func (e *executor) overMask(ph phase, x *index.Index, s Subset, w0, w1 int, kernel func(w *maskWindow, b int, bm bitvec.Bitmap) (n, bad int)) ([]*maskWindow, error) {
	o := openOperator(e.prof.child(ph.op, ph.detail), e.sp, ph.op)
	defer o.end()
	bins := s.occupiedBins(x)
	for _, b := range bins {
		o.scan(ph.leaf, x, b)
	}
	var mu sync.Mutex
	var windows []*maskWindow
	e.par(w0, w1, func(lo, hi int) {
		w := &maskWindow{lo: lo, hi: hi, bad: -1}
		for _, b := range bins {
			if e.ctx.Err() != nil {
				break
			}
			if _, w.bad = kernel(w, b, x.Bitmap(b)); w.bad >= 0 {
				break
			}
		}
		mu.Lock()
		windows = append(windows, w)
		mu.Unlock()
	})
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	for _, w := range windows {
		if w.bad >= 0 {
			return nil, fmt.Errorf("query: internal: %s of index %s found the id array wrong at element %d", ph.op, ph.side, w.bad)
		}
	}
	return windows, nil
}
