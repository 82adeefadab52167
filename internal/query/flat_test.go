package query

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/bitcache"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
	"insitubits/internal/index"
)

// Flat execution (exec.go): what each operator reads, and that the pooled
// scratch it reads into never outlives the request.

// selectedOccupied recomputes, from the mapper and the cached counts alone,
// the bins a subset's value range selects that hold any element.
func selectedOccupied(x *index.Index, s Subset) []int {
	var bins []int
	for b := 0; b < x.Bins(); b++ {
		if s.ValueHi > s.ValueLo && (x.Mapper().High(b) <= s.ValueLo || x.Mapper().Low(b) >= s.ValueHi) {
			continue
		}
		if x.Bitmap(b).Count() > 0 {
			bins = append(bins, b)
		}
	}
	return bins
}

// findOps collects every node named op, in order.
func findOps(n *Node, op string) []*Node {
	var out []*Node
	if n.Op == op {
		out = append(out, n)
	}
	for _, c := range n.Children {
		out = append(out, findOps(c, op)...)
	}
	return out
}

// TestCorrelationReadsEachSelectedBinOnce: a correlation's id decode reads
// the value-selected occupied bins of B and its tally those of A — each
// once, and no other bin — its mask plan reads the side of each value
// predicate its index chose, never more words than the selected bins, and
// nothing else is charged: no pass over the mask after it is built, no bin
// restricted to it beforehand.
func TestCorrelationReadsEachSelectedBinOnce(t *testing.T) {
	xa, xb := explainTestIndex(t, codec.Auto), explainTestIndex(t, codec.WAH)
	n := xa.N()
	ctx := WithCache(context.Background(), nil)
	for _, req := range []Request{
		{Op: OpCorrelation},
		{Op: OpCorrelation, A: Subset{ValueLo: 2, ValueHi: 6}, B: Subset{ValueLo: 0, ValueHi: 5}},
		{Op: OpCorrelation, A: Subset{ValueLo: 1, ValueHi: 7, SpatialLo: 31, SpatialHi: n / 2},
			B: Subset{ValueLo: 3, ValueHi: 4, SpatialLo: 31, SpatialHi: n / 2}},
		{Op: OpCorrelation, A: Subset{SpatialLo: 100, SpatialHi: n - 100},
			B: Subset{ValueLo: 0, ValueHi: 5, SpatialLo: 100, SpatialHi: n - 100}},
	} {
		label := req.describe(nil)
		_, prof, err := Analyze(ctx, req, xa, xb)
		if err != nil {
			t.Fatal(err)
		}
		for _, gone := range []string{"and-mask", "restrict-a", "decode-a"} {
			if len(findOps(prof.Root, gone)) != 0 {
				t.Errorf("%s: profile still has a %s node:\n%s", label, gone, prof.Render())
			}
		}
		var read int64
		for _, side := range []struct {
			op string
			x  *index.Index
			s  Subset
		}{{decodePhase.op, xb, req.B}, {jointPhase.op, xa, req.A}} {
			nodes := findOps(prof.Root, side.op)
			if len(nodes) != 1 {
				t.Fatalf("%s: %d %s nodes:\n%s", label, len(nodes), side.op, prof.Render())
			}
			want := selectedOccupied(side.x, side.s)
			var words int64
			for _, b := range want {
				words += int64(side.x.Bitmap(b).Words())
			}
			var got []int
			for _, c := range nodes[0].Children {
				got = append(got, c.Bin)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) || nodes[0].Cost.BinsTouched != len(want) {
				t.Errorf("%s: %s read bins %v (BinsTouched %d), selected occupied bins are %v",
					label, side.op, got, nodes[0].Cost.BinsTouched, want)
			}
			if w := nodes[0].Total().WordsScanned; w != words {
				t.Errorf("%s: %s scanned %d words, its bins encode to %d", label, side.op, w, words)
			}
			read += words
		}
		mask := findOps(prof.Root, "mask")[0].Total().WordsScanned
		if total := prof.Total().WordsScanned; total != mask+read {
			t.Errorf("%s: %d words scanned, want mask %d + selected bins %d", label, total, mask, read)
		}
		// The mask plan reads each operand of the side its index chose for a
		// value predicate once, and no other bitmap: never more words than
		// the selected bins encode to.
		var ored, want int
		var oredWords, wantWords, selWords int64
		for _, or := range findOps(prof.Root, "or-merge") {
			ored += or.Cost.BinsTouched
			oredWords += or.Total().WordsScanned
		}
		for _, side := range []struct {
			x *index.Index
			s Subset
		}{{xa, req.A}, {xb, req.B}} {
			if !side.s.hasValue() {
				continue
			}
			sel := selectedOccupied(side.x, side.s)
			c := side.x.ChooseSide(sel)
			want, wantWords = want+len(c.Ops), wantWords+int64(c.Words)
			for _, b := range sel {
				selWords += int64(side.x.Bitmap(b).Words())
			}
		}
		if ored != want || oredWords != wantWords || oredWords > selWords {
			t.Errorf("%s: mask plan read %d bitmaps, %d words; the chosen sides are %d bitmaps, %d words; the selected bins %d words",
				label, ored, oredWords, want, wantWords, selWords)
		}
	}
}

// TestPooledScratchNeverEscapes runs mixed Bits and Correlation requests
// from 8 goroutines — two index sizes, so buffers are re-sliced and
// regrown, with and without a shared cache — against digests computed
// serially. Every returned bitmap is digested again after the later
// requests have reused the pool, and every cache entry by a final warm
// pass: a result or a cached bitmap aliasing pooled words would have been
// overwritten by then. Run under -race.
func TestPooledScratchNeverEscapes(t *testing.T) {
	m, err := binning.NewUniform(0, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	type fixture struct {
		xa, xb *index.Index
		reqs   []Request
		want   []string
	}
	var fixtures []*fixture
	for _, n := range []int{31 * 400, 31*150 + 7} {
		f := &fixture{xa: index.BuildCodec(explainTestData(n), m, codec.Auto), xb: index.BuildCodec(shifted(n), m, codec.BBC)}
		for _, req := range oracleRequests(oracleSubsets(n)) {
			if req.Op != OpBits && req.Op != OpCorrelation {
				continue
			}
			ans, err := Run(WithCache(context.Background(), nil), req, f.xa, f.xb)
			if err != nil {
				t.Fatal(err)
			}
			f.reqs, f.want = append(f.reqs, req), append(f.want, ans.Digest())
		}
		fixtures = append(fixtures, f)
	}
	cached := WithCache(context.Background(), bitcache.New(8<<20))
	pass := func(ctx context.Context, g int) {
		type kept struct {
			bm   bitvec.Bitmap
			want string
		}
		var keep []kept
		for i := range fixtures[0].reqs {
			f := fixtures[(g+i)%len(fixtures)]
			k := (i + g) % len(f.reqs)
			ans, err := Run(ctx, f.reqs[k], f.xa, f.xb)
			if err != nil {
				t.Error(err)
				return
			}
			if got := ans.Digest(); got != f.want[k] {
				t.Errorf("goroutine %d: %s %s digests %s, serially %s", g, f.reqs[k].Op, f.reqs[k].describe(nil), got, f.want[k])
			}
			if ans.Bits != nil {
				keep = append(keep, kept{ans.Bits, f.want[k]})
			}
		}
		for _, k := range keep {
			if got := (&Answer{Op: OpBits, Bits: k.bm}).Digest(); got != k.want {
				t.Errorf("goroutine %d: a returned bitmap digests %s after later requests, %s when returned", g, got, k.want)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := cached
			if g%2 == 1 {
				ctx = WithCache(context.Background(), nil)
			}
			pass(ctx, g)
		}(g)
	}
	wg.Wait()
	pass(cached, 0) // warm: answers now come from what the storm cached
	pass(cached, 1)
}

// TestCorrelationDropsAWrongIDArray: the id array is all NoID between
// requests and the bins tile the elements, so a store that finds an id is
// an internal error. The request fails saying so and drops the array, and
// the next one, on a fresh array, answers as before.
func TestCorrelationDropsAWrongIDArray(t *testing.T) {
	const n = 31 * 40
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i % 64)
	}
	m, err := binning.NewUniform(0, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := index.Build(data, m)
	ctx := WithCache(context.Background(), nil)
	sound, err := Correlation(ctx, x, x, Subset{}, Subset{})
	if err != nil || sound.MI == 0 {
		t.Fatalf("the pair answers %+v, %v", sound, err)
	}
	drain := func() {
		for {
			select {
			case <-idFree:
			default:
				return
			}
		}
	}
	drain()
	defer drain()
	wrong := make([]int32, n) // every element already holds bin 0
	idFree.put(&wrong)
	want := "query: internal: decode-b of index B found the id array wrong at element "
	if _, err := Correlation(ctx, x, x, Subset{}, Subset{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("on a wrong id array: error %v, want one saying %q", err, want)
	}
	if got, err := Correlation(ctx, x, x, Subset{}, Subset{}); err != nil || got != sound {
		t.Fatalf("after a wrong id array the pair answers %+v, %v, before it %+v", got, err, sound)
	}
}

// TestShortCircuitSeesEveryWord: operands are evaluated over a spatial
// range's words only, yet the runtime short-circuit decides as it would over
// every word, so the accounting is the same with or without windows. Here
// the value operands lie wholly before the range: over its words they are
// empty, over the whole index they are not, so no test before the range
// fires — as the range comes second (Bits) and third (a correlation mask
// after two value operands) — and ANALYZE charges what EXPLAIN estimates.
func TestShortCircuitSeesEveryWord(t *testing.T) {
	const n = 31 * 400
	data := make([]float64, n)
	for i := range data {
		data[i] = 7
		if i < n/8 {
			data[i] = 0
		}
	}
	m, err := binning.NewUniform(0, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := index.Build(data, m)
	s := Subset{ValueLo: 0, ValueHi: 1, SpatialLo: n / 2, SpatialHi: n}
	ctx := WithCache(context.Background(), nil)
	for _, req := range []Request{{Op: OpBits, A: s}, {Op: OpCorrelation, A: s, B: s}} {
		est, err := ExplainRequest(req, x, x)
		if err != nil {
			t.Fatal(err)
		}
		_, prof, err := Analyze(ctx, req, x, x)
		if err != nil {
			t.Fatal(err)
		}
		plan := func(root *Node) *Node {
			if req.Op == OpCorrelation {
				return findOps(root, "mask")[0]
			}
			return root
		}
		if containsNote(prof.Root, "short-circuit") || len(findOps(prof.Root, "and-range")) != 1 {
			t.Errorf("%s: the range was not applied:\n%s", req.Op, prof.Render())
		}
		if a, e := plan(prof.Root).Total().WordsScanned, plan(est.Root).Total().WordsScanned; a != e {
			t.Errorf("%s: ANALYZE charged %d words, EXPLAIN %d:\n%s%s", req.Op, a, e, prof.Render(), est.Render())
		}
	}
}

// TestExecutorAtForcedWindows runs the executor's checks with every parallel
// pass cut into windows of one, two and seven words, a goroutine each (the
// ocean splits into two): the internal error on a wrong id array, the
// pooled scratch under concurrent requests, the deadline, the EXPLAIN shape
// and the oracle, with its fuzz seeds, must not see the split.
func TestExecutorAtForcedWindows(t *testing.T) {
	defer func() { testHookWindow = 0 }()
	for _, size := range []int{1, 2, 7} {
		testHookWindow = size
		t.Run(fmt.Sprintf("%d-word", size), func(t *testing.T) {
			t.Run("wrong-id-array", TestCorrelationDropsAWrongIDArray)
			t.Run("pooled-scratch", TestPooledScratchNeverEscapes)
			t.Run("deadline", TestDeadlineStopsExecution)
			t.Run("explain-shape", TestExplainMatchesAnalyzeShape)
			t.Run("oracle", TestPlannedCorrelationMatchesNaive)
			t.Run("oracle-fuzz-seeds", func(t *testing.T) {
				for _, in := range oracleSeeds {
					in.check(t)
				}
			})
		})
	}
}
