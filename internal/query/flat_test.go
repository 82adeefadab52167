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
// the value-selected occupied bins of each variable — each once, and no
// other bin — its mask plan ORs in exactly those bins too, the joint tally
// is one walk of the flat mask, and nothing restricts a bin to the mask.
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
		for _, gone := range []string{"and-mask", "restrict-a"} {
			if len(findOps(prof.Root, gone)) != 0 {
				t.Errorf("%s: profile still has a %s node:\n%s", label, gone, prof.Render())
			}
		}
		var decoded int64
		for _, side := range []struct {
			op string
			x  *index.Index
			s  Subset
		}{{"decode-a", xa, req.A}, {"decode-b", xb, req.B}} {
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
			decoded += words
		}
		joint := findOps(prof.Root, "joint")
		if len(joint) != 1 || joint[0].Cost.WordsScanned != int64(2*bitvec.FlatWords(n)) {
			t.Fatalf("%s: joint is not one walk of the %d-word flat mask:\n%s", label, 2*bitvec.FlatWords(n), prof.Render())
		}
		mask := findOps(prof.Root, "mask")[0].Total().WordsScanned
		if total := prof.Total().WordsScanned; total != mask+decoded+joint[0].Cost.WordsScanned {
			t.Errorf("%s: %d words scanned, want mask %d + decoded bins %d + mask walk %d",
				label, total, mask, decoded, joint[0].Cost.WordsScanned)
		}
		// The mask plan ORs each selected bin in once, and reads no others.
		var ored, want int
		for _, or := range findOps(prof.Root, "or-merge") {
			ored += or.Cost.BinsTouched
		}
		if req.A.hasValue() {
			want += len(selectedOccupied(xa, req.A))
		}
		if req.B.hasValue() {
			want += len(selectedOccupied(xb, req.B))
		}
		if ored != want {
			t.Errorf("%s: mask plan ORed %d bins, the value predicates select %d", label, ored, want)
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

// TestCorrelationOnBrokenPartition: an index read from a file may leave an
// element in no bin. Its id is then whatever the pooled scratch held — here
// ids of a 64-bin index — and the joint tally must report that, not index
// out of range.
func TestCorrelationOnBrokenPartition(t *testing.T) {
	const n = 31 * 40
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i % 64)
	}
	wide, err := binning.NewUniform(0, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	xw := index.Build(data, wide)
	if _, err := Correlation(context.Background(), xw, xw, Subset{}, Subset{}); err != nil {
		t.Fatal(err)
	}
	m, err := binning.NewUniform(0, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := index.Build(data, m)
	vecs := make([]bitvec.Bitmap, x.Bins())
	for b := range vecs {
		vecs[b] = x.Bitmap(b)
	}
	vecs[7] = bitvec.FromBools(make([]bool, n)) // elements of bin 7 now lie in no bin
	broken, err := index.FromParts(m, vecs, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // a dropped pool entry hands out zeroed ids: no error, wrong answer
		if _, err := Correlation(context.Background(), broken, x, Subset{}, Subset{}); err != nil {
			if !strings.Contains(err.Error(), "lies in no bin") {
				t.Fatalf("unexpected error: %v", err)
			}
			t.Logf("reported: %v", err)
			return
		}
	}
}
