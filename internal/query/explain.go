package query

import (
	"fmt"

	"insitubits/internal/bitvec"
	"insitubits/internal/index"
)

// EXPLAIN: estimate a request's cost from per-bin index metadata — encoded
// size, word count, cached cardinality, codec — without executing anything.
// O(bins), no bitmap is decoded. A request's bits-shaped part comes from the
// same lower() the executor calls and is rendered from that plan object, so
// EXPLAIN shows the operators ANALYZE will report, in order — operand
// order, pruned bins, a provably-empty result (zero estimated words).
// Estimates carry WordsScanned, BytesDecoded and Rows; the fill/literal
// split needs a scan of the encoding, so it is ANALYZE-only. Value
// predicates are bin-granular, so estimated rows for partially-overlapped
// edge bins are upper bounds; spatial restrictions scale row estimates by
// the covered fraction but not scan costs (CountRange still walks the
// encoding from the start).

// Explain returns the estimated plan of a single-index op over the subset.
func Explain(x *index.Index, s Subset, op Op) (*Profile, error) {
	return ExplainRequest(Request{Op: op, A: s}, x, nil)
}

// ExplainCorrelation estimates the correlation query's plan: the planned
// subset mask, the per-bin restrictions of both variables, and the joint
// AndCount grid over occupied bin pairs.
func ExplainCorrelation(xa, xb *index.Index, sa, sb Subset) (*Profile, error) {
	return ExplainRequest(Request{Op: OpCorrelation, A: sa, B: sb}, xa, xb)
}

// ExplainRequest returns the estimated plan of any request Run accepts.
func ExplainRequest(req Request, xa, xb *index.Index) (*Profile, error) {
	if err := req.validate(xa, xb, nil); err != nil {
		return nil, err
	}
	p := &Profile{Query: string(req.Op), Mode: ModeExplain, Detail: req.describe(nil), Root: &Node{Op: string(req.Op), Bin: -1}}
	switch req.Op {
	case OpBits:
		pl := lower(&req, xa, nil)
		explainPlanNode(pl, p.Root)
		p.Root.setRows(int(pl.est.Rows))
	case OpMean:
		explainBinCounts(xa, req.A, p.Root.child("sum", req.A.describe()))
	case OpCorrelation:
		explainCorrelation(lower(&req, xa, xb), xa, xb, p.Root)
	default:
		explainBinCounts(xa, req.A, p.Root)
	}
	return p, nil
}

// spatialFraction is the fraction of elements the spatial range covers.
func (s Subset) spatialFraction(n int) float64 {
	if !s.hasSpatial() || n == 0 {
		return 1
	}
	return float64(s.SpatialHi-s.SpatialLo) / float64(n)
}

// estBin estimates the cost of consuming bin b once: its full encoded form.
func estBin(x *index.Index, b int, frac float64) Cost {
	bm := x.Bitmap(b)
	return Cost{
		WordsScanned: int64(bm.Words()),
		BytesDecoded: int64(bm.SizeBytes()),
		Rows:         int64(float64(x.Count(b)) * frac),
	}
}

func explainBinCounts(x *index.Index, s Subset, root *Node) {
	frac := s.spatialFraction(x.N())
	touched, pruned := 0, 0
	var rows int64
	for b := 0; b < x.Bins(); b++ {
		if !s.binSelected(x, b) {
			continue
		}
		if x.Count(b) == 0 {
			pruned++
			continue
		}
		touched++
		var c *Node
		if !s.hasSpatial() {
			c = root.child("cached-count", "")
			c.Cost.Rows = int64(x.Count(b))
		} else {
			c = root.child("count-range", "")
			c.Cost = estBin(x, b, frac)
		}
		c.Bin = b
		c.Codec = x.Codec(b).String()
		rows += c.Cost.Rows
	}
	if pruned > 0 {
		root.child("prune", fmt.Sprintf("skipped %d empty bins", pruned))
	}
	root.addCost(Cost{BinsTouched: touched})
	root.setRows(int(rows))
}

// explainCorrelation renders the optimized mask plan, then — unless the
// mask is provably empty, in which case nothing else would run — the
// per-bin restrictions of both variables and the joint AndCount grid over
// occupied bin pairs.
func explainCorrelation(mask *planNode, xa, xb *index.Index, root *Node) {
	mn := root.child("mask", "elements satisfying both predicates")
	explainPlanNode(mask, mn)
	mn.setRows(int(mask.est.Rows))
	if mask.kind == planEmpty {
		return
	}
	segWords := int64((xa.N() + bitvec.SegmentBits - 1) / bitvec.SegmentBits)
	occupied := func(x *index.Index) (bins int, words, bytes int64) {
		for b := 0; b < x.Bins(); b++ {
			if x.Count(b) == 0 {
				continue
			}
			bins++
			words += int64(x.Bitmap(b).Words())
			bytes += int64(x.Bitmap(b).SizeBytes())
		}
		return
	}
	binsA, wordsA, bytesA := occupied(xa)
	binsB, wordsB, bytesB := occupied(xb)
	root.child("restrict-a", "per-bin AND with subset mask").
		addCost(Cost{BinsTouched: binsA, WordsScanned: wordsA + int64(binsA)*segWords, BytesDecoded: bytesA + 4*int64(binsA)*segWords})
	// Each occupied B bin is restricted once, then AndCounted against every
	// occupied restricted A bin; restricted bitmaps are bounded by the mask.
	jointOps := int64(binsA) * int64(binsB)
	root.child("joint", fmt.Sprintf("%d×%d bin pairs", binsA, binsB)).
		addCost(Cost{BinsTouched: binsB, WordsScanned: wordsB + int64(binsB)*segWords + 2*jointOps*segWords, BytesDecoded: bytesB + 4*int64(binsB)*segWords + 8*jointOps*segWords})
}
