package query

import (
	"fmt"
	"sort"

	"insitubits/internal/bitcache"
	"insitubits/internal/index"
)

// This file is the plan/optimize half of the query pipeline. Bits-shaped
// requests (subset materialization, correlation masks) are lowered to a
// small algebraic IR — ORs of bin bitmaps, range/ones indicators,
// multi-operand ANDs — and optimized with the same O(1) per-bin statistics
// the EXPLAIN estimator reads: empty bins are pruned, provably-empty
// subtrees collapse without executing anything, each value OR reads its
// cheaper side — the selected bins or the complement, through Figure 1's
// high-level groups where those are smaller (index.ChooseSide) — and AND
// operands are reordered cheapest/most-selective-first (an early empty
// intermediate skips the operands after it). lower is the one place a
// request is planned: the executor (exec.go) walks the tree it returns,
// consulting the bitmap cache at every node that has a canonical key, and
// EXPLAIN renders the very same tree.

type planKind int

const (
	planEmpty planKind = iota // provably zero result, nothing to execute
	planOnes                  // all-ones indicator
	planRange                 // [lo,hi) spatial indicator
	planBinOr                 // OR of the value-selected bins of one index
	planAnd                   // multi-operand AND
)

// planNode is one operator of the bits IR. The builder fills the shape
// fields; optimize fills estimates, cache keys, operand order, and notes.
type planNode struct {
	kind planKind
	n    int // bit length of the result

	// planBinOr: the selected occupied bins, and the cheaper side of their
	// OR the executor reads (index.ChooseSide)
	x        *index.Index
	vlo, vhi float64
	bins     []int
	cover    index.Cover

	// planRange
	slo, shi int

	// planAnd
	children []*planNode

	est  Cost     // estimated cost of computing this node once
	key  string   // canonical cache key ("" = uncacheable / not worth it)
	gens []uint64 // index generations the expression reads
	note string   // human-readable optimizer decision, surfaced in plans
}

// planLeafOnes builds the all-ones leaf over n bits.
func planLeafOnes(n int) *planNode {
	return &planNode{kind: planOnes, n: n, key: bitcache.OnesKey(n), est: Cost{Rows: int64(n)}}
}

// planLeafRange builds the [lo,hi) indicator leaf over n bits.
func planLeafRange(n, lo, hi int) *planNode {
	return &planNode{kind: planRange, n: n, slo: lo, shi: hi,
		key: bitcache.RangeKey(n, lo, hi), est: Cost{Rows: int64(hi - lo)}}
}

// planValue lowers a value predicate to the OR of its selected bins.
func planValue(x *index.Index, s Subset) *planNode {
	nd := &planNode{kind: planBinOr, n: x.N(), x: x, vlo: s.ValueLo, vhi: s.ValueHi,
		gens: []uint64{x.Generation()}}
	for b := 0; b < x.Bins(); b++ {
		if s.binSelected(x, b) {
			nd.bins = append(nd.bins, b)
		}
	}
	return nd
}

// planBits lowers Bits(x, s): the value OR (or all-ones) ANDed with the
// spatial range indicator.
func planBits(x *index.Index, s Subset) *planNode {
	var val *planNode
	if s.hasValue() {
		val = planValue(x, s)
	} else {
		val = planLeafOnes(x.N())
	}
	if !s.hasSpatial() {
		return val
	}
	return &planNode{kind: planAnd, n: x.N(),
		children: []*planNode{val, planLeafRange(x.N(), s.SpatialLo, s.SpatialHi)}}
}

// planCorrelationMask lowers the correlation subset mask, flattening
// bits(xa,sa) AND bits(xb,sb) into one multi-operand AND: both value ORs
// plus at most one shared spatial indicator, so the optimizer orders all
// operands together and the indicator is built once.
func planCorrelationMask(xa, xb *index.Index, sa, sb Subset) *planNode {
	n := xa.N()
	var ops []*planNode
	if sa.hasValue() {
		ops = append(ops, planValue(xa, sa))
	}
	if sb.hasValue() {
		ops = append(ops, planValue(xb, sb))
	}
	if sa.hasSpatial() {
		ops = append(ops, planLeafRange(n, sa.SpatialLo, sa.SpatialHi))
	}
	switch len(ops) {
	case 0:
		return planLeafOnes(n)
	case 1:
		return ops[0]
	}
	return &planNode{kind: planAnd, n: n, children: ops}
}

// testHookLowered, when non-nil, observes every plan lower hands out; the
// one-plan-per-request test counts through it.
var testHookLowered func(*planNode)

// lower plans a bits-shaped request — Bits, or the subset mask of a
// Correlation — and optimizes it. Every request is planned here exactly
// once, whether it is then executed or only explained.
func lower(req *Request, xa, xb *index.Index) *planNode {
	var p *planNode
	if req.Op == OpCorrelation {
		p = planCorrelationMask(xa, xb, req.A, req.B)
	} else {
		p = planBits(xa, req.A)
	}
	optimize(p)
	if h := testHookLowered; h != nil {
		h(p)
	}
	return p
}

// optimize finalizes a plan in place using only O(1) per-bin and per-group
// metadata — the same inputs as the EXPLAIN estimator. It reads no bitmap
// but on an index's first value OR, which derives its groups (index.Levels).
func optimize(p *planNode) {
	switch p.kind {
	case planBinOr:
		kept := p.bins[:0]
		var rows int64
		pruned := 0
		for _, b := range p.bins {
			if p.x.Count(b) == 0 {
				pruned++
				continue
			}
			kept = append(kept, b)
			rows += int64(p.x.Count(b))
		}
		p.bins = kept
		if pruned > 0 {
			p.note = fmt.Sprintf("pruned %d empty bins", pruned)
		}
		if len(p.bins) == 0 {
			p.kind = planEmpty
			p.note = "provably empty: no occupied bins in value range"
			p.est, p.key, p.gens = Cost{}, "", nil
			return
		}
		// The result bits are the selected bins' OR whichever side is read,
		// so the cache key below names the selected bins.
		p.cover = p.x.ChooseSide(p.bins)
		var bytes int64
		for _, op := range p.cover.Ops {
			bytes += int64(op.Bitmap.SizeBytes())
		}
		p.est = Cost{BinsTouched: len(p.cover.Ops), WordsScanned: int64(p.cover.Words), BytesDecoded: bytes, Rows: rows}
		keys := make([]string, len(p.bins))
		for i, b := range p.bins {
			keys[i] = bitcache.BinKey(p.x.Generation(), b)
		}
		p.key = bitcache.OrKey(keys...)
	case planAnd:
		for _, c := range p.children {
			optimize(c)
		}
		for _, c := range p.children {
			if c.kind == planEmpty {
				p.kind = planEmpty
				p.n = c.n
				p.note = "short-circuit: " + c.note
				p.children, p.est, p.key, p.gens = nil, Cost{}, "", nil
				return
			}
		}
		// x AND ones = x: drop identity operands (keep one if nothing else).
		if len(p.children) > 1 {
			kept := p.children[:0]
			for _, c := range p.children {
				if c.kind != planOnes {
					kept = append(kept, c)
				}
			}
			if len(kept) == 0 {
				kept = p.children[:1]
			}
			p.children = kept
		}
		if len(p.children) == 1 {
			*p = *p.children[0]
			return
		}
		// Cheapest / most-selective first: fewer expected rows means both a
		// cheaper merge and a better chance of an early empty intermediate;
		// encoded size breaks ties (op cost tracks it).
		sort.SliceStable(p.children, func(i, j int) bool {
			a, b := p.children[i], p.children[j]
			if a.est.Rows != b.est.Rows {
				return a.est.Rows < b.est.Rows
			}
			return a.est.WordsScanned < b.est.WordsScanned
		})
		p.note = "operands ordered most-selective-first"
		// Estimates: cost sums the operands; rows assume independent
		// predicates (product of selectivities over n).
		cacheable := true
		sel := 1.0
		for _, c := range p.children {
			p.est.add(c.est)
			if p.n > 0 {
				sel *= float64(c.est.Rows) / float64(p.n)
			}
			if c.key == "" {
				cacheable = false
			}
			p.gens = append(p.gens, c.gens...)
		}
		p.est.Rows = int64(sel * float64(p.n))
		if cacheable {
			keys := make([]string, len(p.children))
			for i, c := range p.children {
				keys[i] = c.key
			}
			p.key = bitcache.AndKey(keys...)
		} else {
			p.key = ""
		}
	}
}
