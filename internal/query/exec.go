package query

import (
	"context"
	"fmt"

	"insitubits/internal/bitcache"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/telemetry"
)

// This file is the execute half of the query pipeline: the executor walks
// an optimized plan, consults the bitmap cache at every node with a
// canonical key, and reports each operator through one recorder that feeds
// the ANALYZE profile, the identity-trace spans and the per-codec counters
// together. ANALYZE accounting on a cache hit charges one scan of the
// cached encoding and nothing else — the per-operand children are absent,
// which is precisely the work the cache saved and what the scan-reduction
// acceptance test measures.

// ctxCacheKey carries a per-request cache override (WithCache).
type ctxCacheKey struct{}

// WithCache returns a context whose query entry points use c as the bitmap
// cache instead of the process default (bitcache.SetDefault). Passing nil
// disables caching for requests under this context even when a default
// cache is installed.
func WithCache(ctx context.Context, c *bitcache.Cache) context.Context {
	return context.WithValue(ctx, ctxCacheKey{}, c)
}

// cacheFrom resolves the effective cache for a request: the context
// override when present, else the process default (usually nil — caching
// is opt-in, keeping the disabled hot path at one atomic load).
func cacheFrom(ctx context.Context) *bitcache.Cache {
	if c, ok := ctx.Value(ctxCacheKey{}).(*bitcache.Cache); ok {
		return c
	}
	return bitcache.Default()
}

// executor runs one request. prof is the root of its profile (nil on the
// plain path) and sp its identity span (nil when untraced); every hook on
// either is nil-safe. plan and cache are set when a bits-shaped operator
// lowers the request — count-shaped ones never pay the context lookup.
type executor struct {
	ctx   context.Context
	prof  *Node
	sp    *telemetry.ActiveSpan
	plan  *planNode
	cache *bitcache.Cache
}

func (e *executor) lookup(key string) bitvec.Bitmap {
	if e.cache == nil || key == "" {
		return nil
	}
	return e.cache.Get(key)
}

// store caches a computed operator result and marks its node a miss — only
// when a cache was actually consulted (cache-off profiles carry no verdict).
func (e *executor) store(n *Node, key string, bm bitvec.Bitmap, gens []uint64) {
	if e.cache == nil || key == "" {
		return
	}
	e.cache.Put(key, bm, gens...)
	if n != nil {
		n.Cache = "miss"
	}
}

// cacheHitNode records an operator answered from the cache: it is charged
// one scan of the cached encoding (the only work the consumer still pays).
func cacheHitNode(parent *Node, op, detail string, bm bitvec.Bitmap) *Node {
	n := parent.child(op, detail)
	if n != nil {
		n.Codec = codecName(bm)
		n.Cost = n.scanCostOf(bm)
		n.Cache = "hit"
	}
	return n
}

// operator is the one recorder of a running bin-level operator: the
// profile node its bin children attach to, its trace span and the per-codec
// tally of the index bins it consumed are fed together by scan/merge and
// closed together by end.
type operator struct {
	node    *Node                 // nil on the plain path
	span    *telemetry.ActiveSpan // nil when the request is untraced
	ops     codecTally            // index bins consumed, by codec
	bins    int                   // bins visited (BinsTouched)
	batched bool                  // bins were read alone: count their codecs at end
}

// openOperator starts the operator named name as a child span of sp,
// reporting into node (its own node, or its parent's when it has none).
func openOperator(node *Node, sp *telemetry.ActiveSpan, name string) operator {
	return operator{node: node, span: sp.Child(name)}
}

// scan records the operator reading bin b of x on its own (an OR operand, a
// range count) and returns the bin-level node, charged one full scan. The
// codec counters are bumped at end: one atomic add per codec, not per bin,
// keeps the disabled-ANALYZE overhead guard under its 2% budget.
func (o *operator) scan(op string, x *index.Index, b int) *Node {
	o.batched = true
	o.ops.bin(x, b)
	o.bins++
	return o.node.binChild(op, x, b)
}

// merge records the operator combining bin b of x with another bitmap in a
// binary kernel call: both operands are charged and counted, and a codec
// mismatch between them is a fallback merge.
func (o *operator) merge(op string, x *index.Index, b int, other bitvec.Bitmap) *Node {
	o.ops.bin(x, b)
	o.bins++
	n := o.node.binChild(op, x, b)
	n.scanOperand(other)
	n.markFallback(countPairOperands(x.Bitmap(b), other))
	return n
}

// end closes the operator: bins touched on the node, and on the span the
// bin count plus one zero-duration marker child per codec class with the
// operands it contributed — the bounded trace-side view of "which codecs did
// this operator consume" (one span per codec, never one per bin).
func (o *operator) end() {
	if o.batched {
		o.ops.flush()
	}
	o.node.addCost(Cost{BinsTouched: o.bins})
	if o.span == nil {
		return
	}
	o.span.SetAttrInt("bins", int64(o.bins))
	for id, n := range o.ops {
		if n == 0 {
			continue
		}
		c := o.span.Child("operand." + codec.ID(id).String())
		c.SetAttrInt("operands", n)
		c.End()
	}
	o.span.End()
}

// fillVector builds the all-zeros or all-ones vector over n bits in O(1)
// fill runs.
func fillVector(bit uint32, n int) *bitvec.Vector {
	var a bitvec.Appender
	full := n / bitvec.SegmentBits
	a.AppendFill(bit, full)
	if rem := n - full*bitvec.SegmentBits; rem > 0 {
		a.AppendPartial(bit*(uint32(1)<<uint(rem)-1), rem)
	}
	return a.Vector()
}

// exec runs one optimized plan node and returns its bitmap, reporting under
// prof and sp. It checks the request's context before every operand it
// would compute and returns the context's error.
func (e *executor) exec(p *planNode, prof *Node, sp *telemetry.ActiveSpan) (bitvec.Bitmap, error) {
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	op, detail := p.label()
	if hit := e.lookup(p.key); hit != nil {
		cacheHitNode(prof, op, detail, hit)
		return hit, nil
	}
	switch p.kind {
	case planEmpty:
		v := fillVector(0, p.n)
		prof.child(op, detail).setOut(v)
		return v, nil

	case planOnes, planRange:
		var v bitvec.Bitmap
		if p.kind == planOnes {
			v = fillVector(1, p.n)
		} else {
			v = rangeVector(p.n, p.slo, p.shi)
		}
		if p.hint == codec.Dense {
			v = codec.Encode(v, codec.Dense)
		}
		n := prof.child(op, detail)
		n.setOut(v)
		e.store(n, p.key, v, nil)
		return v, nil

	case planBinOr:
		o := openOperator(prof.child(op, detail), sp, op)
		defer o.end()
		acc := p.x.Bitmap(p.bins[0])
		o.scan("or", p.x, p.bins[0])
		for _, b := range p.bins[1:] {
			if err := e.ctx.Err(); err != nil {
				return nil, err
			}
			o.scan("or", p.x, b)
			acc = acc.Or(p.x.Bitmap(b))
		}
		if len(p.bins) == 1 {
			acc = acc.Clone()
		}
		o.node.setOut(acc)
		e.store(o.node, p.key, acc, p.gens)
		return acc, nil
	}

	// planAnd
	acc, err := e.exec(p.children[0], prof, sp)
	for i := 1; i < len(p.children) && err == nil; i++ {
		// Runtime short-circuit: an empty intermediate zeroes every
		// further AND, so the remaining operands are never computed.
		if acc.Count() == 0 {
			prof.child("and-merge", fmt.Sprintf("short-circuit: empty intermediate, %d operands skipped", len(p.children)-i))
			break
		}
		var rhs bitvec.Bitmap
		if rhs, err = e.exec(p.children[i], prof, sp); err != nil {
			break
		}
		op, detail := p.andLabel(p.children[i])
		n := prof.child(op, detail)
		asp := sp.Child(op)
		n.scanOperand(acc)
		n.scanOperand(rhs)
		n.markFallback(countPairOperands(acc, rhs))
		acc = acc.And(rhs)
		n.setOut(acc)
		asp.SetAttr("codec", codecName(acc))
		asp.End()
	}
	if err != nil {
		return nil, err
	}
	e.store(nil, p.key, acc, p.gens)
	return acc, nil
}

// label is the operator name and detail a leaf or OR plan node reports
// under, and andLabel those of the AND that folds operand c in. The
// executor and EXPLAIN both take them from here, so the two trees read the
// same.
func (p *planNode) label() (op, detail string) {
	switch p.kind {
	case planEmpty:
		return "empty", p.note
	case planAnd: // a whole AND answered from the cache
		return "and-merge", p.note
	case planOnes:
		op, detail = "ones", "no value predicate"
	case planRange:
		op, detail = "range", fmt.Sprintf("spatial=[%d,%d)", p.slo, p.shi)
	case planBinOr:
		op, detail = "or-merge", fmt.Sprintf("value=[%g,%g)", p.vlo, p.vhi)
	}
	if p.note != "" {
		detail += "; " + p.note
	}
	return op, detail
}

func (p *planNode) andLabel(c *planNode) (op, detail string) {
	if c.kind == planRange {
		return "and-range", fmt.Sprintf("spatial=[%d,%d); %s", c.slo, c.shi, p.note)
	}
	return "and-merge", p.note
}

// explainPlanNode renders an optimized plan as the tree exec would report —
// the same operators in the same order — with estimated costs instead of
// measured ones, so `bitmapctl explain` shows the chosen operand order,
// pruning, and merge strategy up front.
func explainPlanNode(p *planNode, parent *Node) {
	if p.kind == planAnd {
		explainPlanNode(p.children[0], parent)
		segWords := int64((p.n + bitvec.SegmentBits - 1) / bitvec.SegmentBits)
		rows := p.children[0].est.Rows
		for _, c := range p.children[1:] {
			explainPlanNode(c, parent)
			n := parent.child(p.andLabel(c))
			n.addCost(Cost{WordsScanned: 2 * segWords, BytesDecoded: 8 * segWords})
			if p.n > 0 {
				rows = int64(float64(rows) * float64(c.est.Rows) / float64(p.n))
			}
			n.setRows(int(rows))
		}
		return
	}
	n := parent.child(p.label())
	switch p.kind {
	case planOnes:
		n.setRows(p.n)
	case planRange:
		n.addCost(p.est)
	case planBinOr:
		for _, b := range p.bins {
			c := n.child("or", "")
			c.Bin = b
			c.Codec = p.x.Codec(b).String()
			c.Cost = estBin(p.x, b, 1)
		}
		n.addCost(Cost{BinsTouched: len(p.bins)})
		n.setRows(int(p.est.Rows))
	}
}
