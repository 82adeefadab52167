package query

import (
	"context"
	"fmt"
	"sync"

	"insitubits/internal/bitcache"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/telemetry"
)

// This file is the execute half of the query pipeline. The executor
// evaluates an optimized plan flat (DESIGN.md §4c): every selected bin is
// read exactly once, ORed into pooled []uint64 scratch by its codec's own
// kernel; AND is a word loop, a spatial range clears the words outside it,
// and the result is encoded once, for the caller or for the cache. No
// compressed intermediate is built in between. The bitmap cache is consulted
// at every node with a canonical key, and each operator reports through one
// recorder that feeds the ANALYZE profile, the identity-trace spans and the
// per-codec counters together. ANALYZE accounting on a cache hit charges one
// scan of the cached encoding and nothing else — the per-operand children
// are absent, which is precisely the work the cache saved and what the
// scan-reduction acceptance test measures.

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
// flats is the flat scratch it borrowed; release returns it.
type executor struct {
	ctx   context.Context
	prof  *Node
	sp    *telemetry.ActiveSpan
	plan  *planNode
	cache *bitcache.Cache
	flats []*[]uint64
}

// The scratch pools. A request holds at most two flat buffers (n/8 bytes
// each: the accumulator and the operand being ANDed in) from its first bin
// to the end of run, which returns them on every path, errors and deadlines
// included. A correlation holds one id array besides (4n bytes), all
// bitvec.NoID when borrowed: it puts the array back only once its tally has
// taken every id its decode stored, and drops it on any other path. Nothing a
// request returns or caches aliases either: FromFlat copies.
var flatPool, idPool sync.Pool

// borrow takes a buffer of at least n elements out of pool; one it has to
// make is filled with fill.
func borrow[T any](pool *sync.Pool, n int, fill T) *[]T {
	if p, _ := pool.Get().(*[]T); p != nil && len(*p) >= n {
		return p
	}
	buf := make([]T, n)
	for i := range buf {
		buf[i] = fill
	}
	return &buf
}

// flat borrows zeroed flat scratch for n bits.
func (e *executor) flat(n int) []uint64 {
	p := borrow(&flatPool, bitvec.FlatWords(n), uint64(0))
	e.flats = append(e.flats, p)
	words := (*p)[:bitvec.FlatWords(n)]
	clear(words)
	return words
}

func (e *executor) release() {
	for _, p := range e.flats {
		flatPool.Put(p)
	}
	e.flats = nil
}

// flatCost is the charge for one pass over a flat buffer of n bits, in the
// Cost's 32-bit words; EXPLAIN and ANALYZE both take it from here.
func flatCost(n, passes int) Cost {
	words := int64(2 * bitvec.FlatWords(n) * passes)
	return Cost{WordsScanned: words, BytesDecoded: 4 * words}
}

// cached answers plan node p from the cache, as a hit node under prof: it is
// charged one scan of the cached encoding, the only work its consumer pays.
func (e *executor) cached(p *planNode, prof *Node) bitvec.Bitmap {
	if e.cache == nil || p.key == "" {
		return nil
	}
	hit := e.cache.Get(p.key)
	if hit != nil && prof != nil {
		n := prof.child(p.label())
		n.Codec, n.Cost, n.Cache = codecName(hit), n.scanCostOf(hit), "hit"
	}
	return hit
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

// result runs the request's plan, reporting under prof and sp. The cache
// answers with the encoded bitmap (words is nil); otherwise the plan is
// evaluated into flat scratch, and encoded — once — only when a cache takes
// it (else bm is nil).
func (e *executor) result(prof *Node, sp *telemetry.ActiveSpan) (words []uint64, bm bitvec.Bitmap, err error) {
	p := e.plan
	if err := e.ctx.Err(); err != nil {
		return nil, nil, err
	}
	if hit := e.cached(p, prof); hit != nil {
		return nil, hit, nil
	}
	words = e.flat(p.n)
	if err := e.compute(p, words, prof, sp); err != nil {
		return nil, nil, err
	}
	if e.cache != nil && p.key != "" {
		bm = bitvec.FromFlat(words, p.n)
		e.cache.Put(p.key, bm, p.gens...)
		if prof != nil {
			prof.Cache = "miss"
		}
	}
	return words, bm, nil
}

// exec ORs the result of plan node p into dst: its cached encoding when the
// cache has one, else by computing it.
func (e *executor) exec(p *planNode, dst []uint64, prof *Node, sp *telemetry.ActiveSpan) error {
	if hit := e.cached(p, prof); hit != nil {
		hit.OrInto(dst)
		return nil
	}
	return e.compute(p, dst, prof, sp)
}

// compute evaluates plan node p into dst, zeroed flat scratch of p.n bits.
// It checks the request's context before every bin it reads and returns the
// context's error.
func (e *executor) compute(p *planNode, dst []uint64, prof *Node, sp *telemetry.ActiveSpan) error {
	if p.kind == planAnd {
		return e.computeAnd(p, dst, prof, sp)
	}
	op, detail := p.label()
	node := prof.child(op, detail)
	switch p.kind {
	case planOnes:
		bitvec.SetFlatRange(dst, 0, p.n)
	case planRange:
		bitvec.SetFlatRange(dst, p.slo, p.shi)
	case planBinOr:
		o := openOperator(node, sp, op)
		defer o.end()
		for _, b := range p.bins {
			if err := e.ctx.Err(); err != nil {
				return err
			}
			o.scan("or", p.x, b)
			p.x.Bitmap(b).OrInto(dst)
		}
	}
	return nil
}

// computeAnd lands the leading operand in dst and folds each further one in
// with a word loop: a value OR through a second scratch buffer, a spatial
// range by clearing the words outside it.
func (e *executor) computeAnd(p *planNode, dst []uint64, prof *Node, sp *telemetry.ActiveSpan) error {
	if err := e.exec(p.children[0], dst, prof, sp); err != nil {
		return err
	}
	var rhs []uint64
	for i, c := range p.children[1:] {
		// Runtime short-circuit: an empty intermediate zeroes every further
		// AND, so the remaining operands are never computed.
		if bitvec.CountFlat(dst) == 0 {
			prof.child("and-merge", fmt.Sprintf("short-circuit: empty intermediate, %d operands skipped", len(p.children)-1-i))
			break
		}
		passes := 1
		if c.kind == planRange {
			bitvec.KeepFlatRange(dst, c.slo, c.shi)
		} else {
			if rhs == nil {
				rhs = e.flat(p.n)
			} else {
				clear(rhs)
			}
			if err := e.exec(c, rhs, prof, sp); err != nil {
				return err
			}
			for w := range dst {
				dst[w] &= rhs[w]
			}
			passes = 2
		}
		prof.child(p.andLabel(c)).addCost(flatCost(p.n, passes))
	}
	return nil
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

// explainPlanNode renders an optimized plan as the tree compute would
// report — the same operators in the same order — with estimated costs
// instead of measured ones, so `bitmapctl explain` shows the chosen operand
// order and pruning up front.
func explainPlanNode(p *planNode, parent *Node) {
	if p.kind == planAnd {
		explainPlanNode(p.children[0], parent)
		rows := p.children[0].est.Rows
		for _, c := range p.children[1:] {
			passes := 1
			if c.kind != planRange {
				explainPlanNode(c, parent)
				passes = 2
			}
			n := parent.child(p.andLabel(c))
			n.addCost(flatCost(p.n, passes))
			if p.n > 0 {
				rows = int64(float64(rows) * float64(c.est.Rows) / float64(p.n))
			}
			n.setRows(int(rows))
		}
		return
	}
	n := parent.child(p.label())
	switch p.kind {
	case planOnes, planRange:
		n.setRows(int(p.est.Rows))
	case planBinOr:
		explainBins(n, "or", p.x, p.bins)
		n.setRows(int(p.est.Rows))
	}
}
