package query

import (
	"fmt"

	"insitubits/internal/index"
)

// EXPLAIN: estimate a request's cost from per-bin index metadata — encoded
// size, word count, cached cardinality, codec — without executing anything.
// O(bins), no bitmap is decoded, once an index's high-level groups exist:
// the first value OR planned on an index derives them (index.Levels). A request's bits-shaped part comes from the
// same lower() the executor calls and is rendered from that plan object, so
// EXPLAIN shows the operators ANALYZE will report, in order — operand
// order, pruned bins, a provably-empty result (zero estimated words).
// Estimates carry WordsScanned, BytesDecoded and Rows; the fill/literal
// split needs a scan of the encoding, so it is ANALYZE-only. Value
// predicates are bin-granular, so estimated rows for partially-overlapped
// edge bins are upper bounds; spatial restrictions scale row estimates by
// the covered fraction but not scan costs: a windowed read is charged one
// full scan of each operand, as ANALYZE charges it.

// Explain returns the estimated plan of a single-index op over the subset.
func Explain(x *index.Index, s Subset, op Op) (*Profile, error) {
	return ExplainRequest(Request{Op: op, A: s}, x, nil)
}

// ExplainCorrelation estimates the correlation query's plan: the planned
// subset mask, the id decode of B's selected bins over it, and the tally of
// A's.
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
		explainCorrelation(lower(&req, xa, xb), &req, xa, xb, p.Root)
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

// explainBins renders operator n reading each of bins once, as the
// executor's operator.scan reports it.
func explainBins(n *Node, op string, x *index.Index, bins []int) {
	for _, b := range bins {
		c := n.child(op, "")
		c.Bin = b
		c.Codec = x.Codec(b).String()
		c.Cost = estBin(x, b, 1)
	}
	n.addCost(Cost{BinsTouched: len(bins)})
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
// mask is provably empty, in which case nothing else would run — the two
// phases that read each variable's value-selected occupied bins over it.
func explainCorrelation(mask *planNode, req *Request, xa, xb *index.Index, root *Node) {
	mn := root.child("mask", "elements satisfying both predicates")
	explainPlanNode(mask, mn)
	mn.setRows(int(mask.est.Rows))
	if mask.kind == planEmpty {
		return
	}
	explainBins(root.child(decodePhase.op, decodePhase.detail), decodePhase.leaf, xb, req.B.occupiedBins(xb))
	explainBins(root.child(jointPhase.op, jointPhase.detail), jointPhase.leaf, xa, req.A.occupiedBins(xa))
}
