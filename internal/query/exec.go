package query

import (
	"context"
	"fmt"
	"runtime"
	"slices"

	"insitubits/internal/bitcache"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/sim"
	"insitubits/internal/telemetry"
)

// This file is the execute half of the query pipeline. The executor
// evaluates an optimized plan flat (DESIGN.md §4c): each value OR reads the
// bitmaps of the side the planner chose exactly once, ORed into pooled
// []uint64 scratch by their codec's own kernel, and NOTs the words when
// that side is the complement; AND is a word loop, a spatial range clears
// the words outside it, and the result is encoded once, for the caller or
// for the cache. No
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

// The scratch free lists. A request holds at most two flat buffers (n/8
// bytes each: the accumulator and the operand being ANDed in) from its first
// bin to the end of run, which returns them on every path, errors and
// deadlines included. A correlation holds one id array besides (4n bytes),
// all bitvec.NoID when taken: it puts the array back only once its tally
// has taken every id its decode stored, and drops it on any other path.
// Nothing a request returns or caches aliases either: FromFlat copies. A
// list keeps what GOMAXPROCS requests hold; a sync.Pool would keep one per
// P, and the parallel passes move a request from P to P.
var (
	flatFree = make(freeList[uint64], 2*runtime.GOMAXPROCS(0))
	idFree   = make(freeList[int32], runtime.GOMAXPROCS(0))
)

type freeList[T any] chan *[]T

// get takes a buffer of at least n elements off the list; one it has to
// make is filled with fill.
func (l freeList[T]) get(n int, fill T) *[]T {
	select {
	case p := <-l:
		if len(*p) >= n {
			return p
		}
	default:
	}
	buf := make([]T, n)
	for i := range buf {
		buf[i] = fill
	}
	return &buf
}

// put returns a buffer to the list, or drops it when the list is full.
func (l freeList[T]) put(p *[]T) {
	select {
	case l <- p:
	default:
	}
}

// flat borrows zeroed flat scratch for n bits.
func (e *executor) flat(n int) []uint64 {
	p := flatFree.get(bitvec.FlatWords(n), 0)
	e.flats = append(e.flats, p)
	words := (*p)[:bitvec.FlatWords(n)]
	clear(words)
	return words
}

func (e *executor) release() {
	for _, p := range e.flats {
		flatFree.put(p)
	}
	e.flats = nil
}

// parGrain is the fewest flat words a pass gives one worker (16 Ki elements):
// below it a fan-out costs more than it saves (DESIGN.md §4c).
const parGrain = 256

// testHookWindow, when positive, cuts every pass into windows of exactly
// that many words, one goroutine each.
var testHookWindow int

// par runs fn over disjoint windows tiling the words [w0, w1), one per
// worker, on up to GOMAXPROCS goroutines, and returns when all are done. A
// worker's panic is raised again here (sim.ParallelFor), where serve's
// per-request recovery catches it. fn must touch only its window's words.
func (e *executor) par(w0, w1 int, fn func(lo, hi int)) {
	size := max(parGrain, (w1-w0+runtime.GOMAXPROCS(0)-1)/runtime.GOMAXPROCS(0))
	if testHookWindow > 0 {
		size = testHookWindow
	}
	k := (w1 - w0 + size - 1) / size
	sim.ParallelFor(k, k, func(a, b int) {
		for j := a; j < b; j++ {
			fn(w0+j*size, min(w1, w0+(j+1)*size))
		}
	})
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

// scan records the operator reading bin b of x and returns the bin-level
// node, charged one full scan however few of its words the operator reads. The
// codec counters are bumped at end: one atomic add per codec, not per bin,
// keeps the disabled-ANALYZE overhead guard under its 2% budget.
func (o *operator) scan(op string, x *index.Index, b int) *Node {
	o.batched = true
	o.ops.bin(x, b)
	o.bins++
	return o.node.binChild(op, x, b)
}

// read records the operator reading one operand of a value OR, charged one
// full scan of its encoding.
func (o *operator) read(op index.Operand) {
	o.batched = true
	o.ops[codec.Of(op.Bitmap)]++
	o.bins++
	if c := o.node.operandChild(op); c != nil {
		c.Cost = c.scanCostOf(op.Bitmap)
	}
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
	if err := e.compute(p, words, 0, len(words), prof, sp); err != nil {
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

// exec ORs the words [w0, w1) of the result of plan node p into dst: its
// cached encoding when the cache has one, else by computing it.
func (e *executor) exec(p *planNode, dst []uint64, w0, w1 int, prof *Node, sp *telemetry.ActiveSpan) error {
	if hit := e.cached(p, prof); hit != nil {
		e.par(w0, w1, func(lo, hi int) { hit.OrInto(dst, lo, hi) })
		return nil
	}
	return e.compute(p, dst, w0, w1, prof, sp)
}

// compute evaluates the words [w0, w1) of plan node p into dst, zeroed flat
// scratch of p.n bits. Its workers check the request's context between
// bins, and it returns the context's error.
func (e *executor) compute(p *planNode, dst []uint64, w0, w1 int, prof *Node, sp *telemetry.ActiveSpan) error {
	if p.kind == planAnd {
		return e.computeAnd(p, dst, w0, w1, prof, sp)
	}
	op, detail := p.label()
	node := prof.child(op, detail)
	switch p.kind {
	case planOnes:
		bitvec.SetFlatRange(dst, w0<<6, min(w1<<6, p.n))
	case planRange:
		bitvec.SetFlatRange(dst, max(p.slo, w0<<6), min(p.shi, w1<<6))
	case planBinOr:
		o := openOperator(node, sp, op)
		defer o.end()
		for _, c := range p.cover.Ops {
			o.read(c)
		}
		stop := func() bool { return e.ctx.Err() != nil }
		e.par(w0, w1, func(lo, hi int) { p.cover.Or(dst, lo, hi, stop) })
		return e.ctx.Err()
	}
	return nil
}

// computeAnd lands the leading operand in dst and folds each further one in
// with a word loop: a value OR through a second scratch buffer, a spatial
// range by clearing the words outside it. Operands are evaluated over the
// range's words only, from the range on — or from the first, never empty,
// when the range is second — so no short-circuit test sees fewer words.
func (e *executor) computeAnd(p *planNode, dst []uint64, w0, w1 int, prof *Node, sp *telemetry.ActiveSpan) error {
	r := slices.IndexFunc(p.children, func(c *planNode) bool { return c.kind == planRange })
	lo, hi := w0, w1 // the range's words
	if r >= 0 {
		lo, hi = max(w0, p.children[r].slo>>6), min(w1, bitvec.FlatWords(p.children[r].shi))
	}
	if r <= 1 {
		w0, w1 = lo, hi
	}
	if err := e.exec(p.children[0], dst, w0, w1, prof, sp); err != nil {
		return err
	}
	var rhs []uint64
	for i, c := range p.children[1:] {
		// Runtime short-circuit: an empty intermediate zeroes every further
		// AND, so the rest are never computed (the leading one is not empty).
		if i > 0 && bitvec.CountFlat(dst[w0:w1]) == 0 {
			prof.child("and-merge", fmt.Sprintf("short-circuit: empty intermediate, %d operands skipped", len(p.children)-1-i))
			break
		}
		passes := 1
		if c.kind == planRange {
			bitvec.KeepFlatRange(dst, c.slo, c.shi)
			w0, w1 = lo, hi
		} else {
			if rhs == nil {
				rhs = e.flat(p.n)
			} else {
				clear(rhs[w0:w1])
			}
			if err := e.exec(c, rhs, w0, w1, prof, sp); err != nil {
				return err
			}
			for w := w0; w < w1; w++ {
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
		side := "selected"
		if p.cover.Complement {
			side = "complement"
		}
		op, detail = "or-merge", fmt.Sprintf("value=[%g,%g) side=%s", p.vlo, p.vhi, side)
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
		for _, op := range p.cover.Ops {
			c := n.operandChild(op)
			c.Cost = Cost{WordsScanned: int64(op.Bitmap.Words()), BytesDecoded: int64(op.Bitmap.SizeBytes())}
			for b := op.Lo; b < op.Hi; b++ {
				c.Cost.Rows += int64(p.x.Count(b))
			}
		}
		n.addCost(Cost{BinsTouched: len(p.cover.Ops)})
		n.setRows(int(p.est.Rows))
	}
}
