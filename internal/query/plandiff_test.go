package query

import (
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/bitcache"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/metrics"
	"insitubits/internal/qlog"
)

// The oracle suite. The paper's claim is zero accuracy loss at equal
// binning: any query answered from the bitmaps equals the same computation
// brute-forced over the binned raw array. model is that brute force — the
// naive reference: per-element bin ids from the mapper the index was built
// with, no bitmaps, no planner, no cache — and every operator, under every
// codec, cache state and accounting level, must agree with it exactly:
// bitmaps after canonical WAH re-encoding, and numbers bit for bit, because
// the model derives them from its integer per-bin counts in the same bin
// order and through the same metrics functions as the operators do.

type model struct {
	m   binning.Mapper
	ids []int // ids[i] = m.Bin(data[i])
}

func newModel(data []float64, m binning.Mapper) *model {
	md := &model{m: m, ids: make([]int, len(data))}
	for i, v := range data {
		md.ids[i] = m.Bin(v)
	}
	return md
}

// selects reports whether element i is in the subset: inside the spatial
// range, and in a bin overlapping the value range (value predicates are
// bin-granular).
func (md *model) selects(s Subset, i int) bool {
	if s.hasSpatial() && (i < s.SpatialLo || i >= s.SpatialHi) {
		return false
	}
	b := md.ids[i]
	return !s.hasValue() || (md.m.High(b) > s.ValueLo && md.m.Low(b) < s.ValueHi)
}

// counts is the subset's per-bin histogram.
func (md *model) counts(s Subset) (counts []int, total int) {
	counts = make([]int, md.m.Bins())
	for i, b := range md.ids {
		if md.selects(s, i) {
			counts[b]++
			total++
		}
	}
	return counts, total
}

func (md *model) binAggregate(b, total int) Aggregate {
	lo, hi := md.m.Low(b), md.m.High(b)
	return Aggregate{Count: total, Estimate: (lo + hi) / 2, Lo: lo, Hi: hi}
}

// answer is what req must return; other models Correlation's second index.
func (md *model) answer(req Request, other *model) Answer {
	want := Answer{Op: req.Op}
	counts, total := md.counts(req.A)
	switch req.Op {
	case OpBits:
		sel := make([]bool, len(md.ids))
		for i := range sel {
			sel[i] = md.selects(req.A, i)
		}
		want.Bits = bitvec.FromBools(sel)
	case OpCount:
		want.Count = total
	case OpSum, OpMean:
		for b, c := range counts {
			if c == 0 {
				continue
			}
			lo, hi := md.m.Low(b), md.m.High(b)
			want.Agg.Count += c
			want.Agg.Estimate += float64(c) * (lo + hi) / 2
			want.Agg.Lo += float64(c) * lo
			want.Agg.Hi += float64(c) * hi
		}
		if n := float64(total); req.Op == OpMean && total > 0 {
			want.Agg.Estimate, want.Agg.Lo, want.Agg.Hi = want.Agg.Estimate/n, want.Agg.Lo/n, want.Agg.Hi/n
		}
	case OpQuantile:
		rank, cum := int(req.Q*float64(total-1))+1, 0
		for b, c := range counts {
			if cum += c; total > 0 && cum >= rank {
				want.Agg = md.binAggregate(b, total)
				break
			}
		}
	case OpMinMax:
		first, last := -1, -1
		for b, c := range counts {
			if c > 0 && first < 0 {
				first = b
			}
			if c > 0 {
				last = b
			}
		}
		if first >= 0 {
			want.Min, want.Max = md.binAggregate(first, total), md.binAggregate(last, total)
		}
	case OpCorrelation:
		ha, hb := make([]int, md.m.Bins()), make([]int, other.m.Bins())
		joint := make([][]int, len(ha))
		for i := range joint {
			joint[i] = make([]int, len(hb))
		}
		n := 0
		for i := range md.ids {
			if md.selects(req.A, i) && other.selects(req.B, i) {
				ha[md.ids[i]]++
				hb[other.ids[i]]++
				joint[md.ids[i]][other.ids[i]]++
				n++
			}
		}
		if n > 0 {
			ea, eb := metrics.Entropy(ha, n), metrics.Entropy(hb, n)
			mi := metrics.MutualInformation(joint, ha, hb, n)
			want.Pair = metrics.Pair{EntropyA: ea, EntropyB: eb, MI: mi, CondEntropyAB: ea - mi, CondEntropyBA: eb - mi}
		}
	}
	return want
}

// assertCanonicalEqual fails unless got and want are byte-identical after
// canonical WAH re-encoding, and logically Equal both ways.
func assertCanonicalEqual(t testing.TB, label string, got, want bitvec.Bitmap) {
	t.Helper()
	if !reflect.DeepEqual(bitvec.ToVector(got).RawWords(), bitvec.ToVector(want).RawWords()) {
		t.Fatalf("%s: canonical encodings differ", label)
	}
	if !got.Equal(want) || !want.Equal(got) {
		t.Fatalf("%s: bitmaps not Equal despite identical canonical bytes", label)
	}
}

// assertAnswer compares an executed answer with the model's, exactly.
func assertAnswer(t testing.TB, label string, got, want Answer) {
	t.Helper()
	if want.Op == OpBits {
		assertCanonicalEqual(t, label, got.Bits, want.Bits)
		got.Bits, want.Bits = nil, nil
	}
	if got != want {
		t.Fatalf("%s: answer diverges from the model:\n got  %+v\n want %+v", label, got, want)
	}
}

// oracleFixture is one pair of indexes with the models of the data they
// were built from.
type oracleFixture struct {
	xa, xb *index.Index
	ma, mb *model
}

func newOracleFixture(da, db []float64, m binning.Mapper, ca, cb codec.ID) *oracleFixture {
	return &oracleFixture{
		xa: index.BuildCodec(da, m, ca), xb: index.BuildCodec(db, m, cb),
		ma: newModel(da, m), mb: newModel(db, m),
	}
}

// check runs req at one accounting level under each cache state — no cache,
// cold, warm — and compares every answer with the model's.
func (f *oracleFixture) check(t testing.TB, label string, req Request, lvl accounting) {
	t.Helper()
	want := f.ma.answer(req, f.mb)
	cache := bitcache.New(1 << 20)
	for _, st := range []struct {
		name  string
		cache *bitcache.Cache
	}{{"no-cache", nil}, {"cold", cache}, {"warm", cache}} {
		got, prof, err := run(WithCache(context.Background(), st.cache), req, f.xa, f.xb, nil, lvl)
		if err != nil {
			t.Fatalf("%s %s: %v", label, st.name, err)
		}
		if ran := max(lvl, installedAccounting()); (prof != nil) != (ran != acctNone) {
			t.Fatalf("%s %s: profile presence %t at level %d", label, st.name, prof != nil, ran)
		}
		assertAnswer(t, label+" "+st.name, got, want)
	}
}

// oracleSubsets is the fixed subset matrix over n elements.
func oracleSubsets(n int) []Subset {
	return []Subset{
		{},                                   // unbounded
		{ValueLo: 2, ValueHi: 6},             // value only
		{SpatialLo: 100, SpatialHi: n - 100}, // spatial only
		{ValueLo: 1, ValueHi: 7, SpatialLo: 31, SpatialHi: n / 2},       // both
		{ValueLo: 100, ValueHi: 200},                                    // provably empty value range
		{ValueLo: 0, ValueHi: 8, SpatialLo: 0, SpatialHi: n},            // explicit full
		{ValueLo: 3, ValueHi: 4, SpatialLo: n / 4, SpatialHi: n/4 + 64}, // narrow: empty only at run time
	}
}

// oracleRequests is all seven ops over each subset.
func oracleRequests(subsets []Subset) []Request {
	var reqs []Request
	for _, s := range subsets {
		for _, op := range []Op{OpBits, OpCount, OpSum, OpMean, OpMinMax} {
			reqs = append(reqs, Request{Op: op, A: s})
		}
		for _, q := range []float64{0, 0.5, 1} {
			reqs = append(reqs, Request{Op: OpQuantile, A: s, Q: q})
		}
		// The spatial range applies to both variables, so it must match.
		reqs = append(reqs, Request{Op: OpCorrelation, A: s,
			B: Subset{ValueLo: 0, ValueHi: 5, SpatialLo: s.SpatialLo, SpatialHi: s.SpatialHi}})
	}
	return reqs
}

// shifted is explainTestData out of phase: a second variable correlated
// with the first but not equal to it.
func shifted(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = float64((i/97 + i%5) % 8)
	}
	return d
}

// TestPlannedMatchesNaiveAllCodecs is the property itself: every op × codec
// × cache state × accounting level — plain, light (a workload log
// installed, which is also checked to have recorded the model's digest for
// every request), and full ANALYZE.
func TestPlannedMatchesNaiveAllCodecs(t *testing.T) {
	n := 31 * 400
	m, err := binning.NewUniform(0, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		id   codec.ID
	}{
		{"wah", codec.WAH}, {"bbc", codec.BBC}, {"mixed", codec.Auto},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newOracleFixture(explainTestData(n), shifted(n), m, tc.id, tc.id)
			reqs := oracleRequests(oracleSubsets(n))
			for _, req := range reqs {
				f.check(t, "plain "+string(req.Op)+" "+req.describe(nil), req, acctNone)
				f.check(t, "full "+string(req.Op)+" "+req.describe(nil), req, acctFull)
			}
			// Light: the level a plain request runs at while only a workload
			// log is installed.
			path := filepath.Join(t.TempDir(), "oracle.isql")
			w, err := qlog.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			qlog.Install(w)
			defer qlog.Install(nil)
			if installedAccounting() != acctLight {
				t.Fatalf("installed accounting = %d with only a workload log", installedAccounting())
			}
			for _, req := range reqs {
				f.check(t, "light "+string(req.Op)+" "+req.describe(nil), req, acctNone)
			}
			qlog.Install(nil)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			recs, _, err := qlog.ReadLog(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 3*len(reqs) {
				t.Fatalf("captured %d records for %d requests × 3 cache states", len(recs), len(reqs))
			}
			for i, rec := range recs {
				want := f.ma.answer(reqs[i/3], f.mb)
				if rec.Result != want.Digest() {
					t.Fatalf("record %d (%s %s): digest %s, model %s", i, rec.Op, rec.Detail, rec.Result, want.Digest())
				}
			}
		})
	}
}

// TestPlannedAggregatesMatchNaive repeats the property where the float
// arithmetic is least forgiving: smooth data over 64 bins with fractional
// edges, random subsets, every aggregate.
func TestPlannedAggregatesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, err := binning.NewUniform(0, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	n := 5000
	f := newOracleFixture(smooth(rng, n), smooth(rng, n), m, codec.Auto, codec.Auto)
	for trial := 0; trial < 25; trial++ {
		lo := rng.Intn(n - 1)
		vlo := rng.Float64() * 10
		s := Subset{ValueLo: vlo, ValueHi: vlo + rng.Float64()*(10-vlo), SpatialLo: lo, SpatialHi: lo + 1 + rng.Intn(n-lo-1)}
		for _, req := range []Request{
			{Op: OpSum, A: s}, {Op: OpMean, A: s}, {Op: OpMinMax, A: s},
			{Op: OpQuantile, A: s, Q: rng.Float64()},
			{Op: OpCorrelation, A: s, B: Subset{SpatialLo: s.SpatialLo, SpatialHi: s.SpatialHi}},
		} {
			f.check(t, string(req.Op)+" "+req.describe(nil), req, acctNone)
		}
	}
}

// TestPlannedCorrelationMatchesNaive crosses operand codecs: the two
// variables of a correlation need not share an encoding, and the mask, the
// restrictions and the joint grid must not care.
func TestPlannedCorrelationMatchesNaive(t *testing.T) {
	n := 31 * 300
	m, err := binning.NewUniform(0, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, ids := range [][2]codec.ID{{codec.WAH, codec.WAH}, {codec.WAH, codec.BBC}, {codec.BBC, codec.Auto}, {codec.Auto, codec.Auto}} {
		f := newOracleFixture(explainTestData(n), shifted(n), m, ids[0], ids[1])
		for _, sa := range []Subset{{}, {ValueLo: 1, ValueHi: 6}, {ValueLo: 2, ValueHi: 7, SpatialLo: 62, SpatialHi: n - 62}} {
			req := Request{Op: OpCorrelation, A: sa, B: Subset{ValueLo: 0, ValueHi: 5, SpatialLo: sa.SpatialLo, SpatialHi: sa.SpatialHi}}
			f.check(t, ids[0].String()+"×"+ids[1].String()+" plain", req, acctNone)
			f.check(t, ids[0].String()+"×"+ids[1].String()+" full", req, acctFull)
		}
	}
}

// FuzzQueryMatchesOracle draws the data (run-heavy to noisy, every bin
// used or every k-th left empty), the binning, the codec, the subset and
// the operator from the fuzz input and holds the property at all three
// accounting levels and cache states. `make fuzz-smoke` runs it for 10 s;
// the seed corpus alone covers each codec and op with value-only,
// spatial-only and combined subsets, and each side and level of a value OR
// (TestOracleSeedsReadBothSidesAndLevels).
func FuzzQueryMatchesOracle(f *testing.F) {
	for _, in := range oracleSeeds {
		f.Add(in.seed, in.n16, in.bins8, in.codecSel, in.noise, in.opSel, in.vlo, in.vspan, in.slo, in.sspan, in.q8, in.holes)
	}
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, bins8, codecSel, noise, opSel, vlo, vspan uint8, slo, sspan uint16, q8, holes uint8) {
		oracleInput{seed, n16, bins8, codecSel, noise, opSel, vlo, vspan, slo, sspan, q8, holes}.check(t)
	})
}

// oracleInput is one input of FuzzQueryMatchesOracle.
type oracleInput struct {
	seed                                      int64
	n16                                       uint16
	bins8, codecSel, noise, opSel, vlo, vspan uint8
	slo, sspan                                uint16
	q8                                        uint8
	holes                                     uint8 // k > 0: the data leaves every bin b with b%(k%4+2) == 0 empty
}

// oracleSeeds is FuzzQueryMatchesOracle's seed corpus.
var oracleSeeds = []oracleInput{
	//seed n     bins codec noise op vlo vspan slo  sspan q holes
	{1, 900, 16, 0, 0, 0, 3, 4, 0, 0, 0, 0},         // wah, run-heavy, bits, value only
	{2, 4000, 16, 1, 200, 1, 0, 0, 100, 3000, 0, 0}, // bbc, noisy, count, spatial only
	{3, 2048, 8, 2, 30, 2, 1, 5, 31, 1000, 0, 0},    // auto, sum, combined
	{4, 3100, 32, 3, 90, 3, 4, 20, 7, 2500, 0, 0},   // wah, mean, combined
	{5, 1500, 16, 3, 10, 4, 2, 9, 0, 0, 128, 0},     // quantile, value only
	{6, 777, 5, 1, 255, 5, 0, 0, 70, 600, 0, 0},     // minmax, spatial only
	{7, 2600, 12, 0, 40, 6, 2, 6, 62, 2400, 0, 0},   // correlation, combined
	{8, 64, 2, 2, 0, 6, 200, 1, 0, 0, 0, 0},         // correlation, provably empty
	{9, 500, 3, 0, 10, 6, 0, 200, 0, 0, 0, 0},       // correlation, B's value range inverted
	{10, 6000, 22, 2, 0, 0, 9, 1, 0, 0, 0, 0},       // bits, one bin, a partial last group
	{11, 6000, 23, 1, 20, 0, 0, 23, 0, 0, 0, 0},     // bits, every bin: the complement reads nothing
	{12, 5000, 30, 2, 0, 0, 4, 13, 0, 0, 0, 2},      // bits, empty bins inside groups
	{13, 7000, 30, 0, 0, 0, 2, 26, 0, 0, 0, 0},      // bits, complement through groups
	{14, 7000, 26, 2, 5, 0, 0, 20, 70, 3000, 0, 0},  // bits, groups read in a spatial window
	{15, 8000, 27, 1, 0, 6, 1, 22, 333, 5555, 0, 1}, // correlation, complement in a window, holes
	{16, 3000, 20, 0, 0, 0, 6, 1, 0, 0, 0, 1},       // bits, one empty bin
}

// fixture builds the input's pair of indexes and its request.
func (in oracleInput) fixture() (*oracleFixture, Request, bool) {
	ops := []Op{OpBits, OpCount, OpSum, OpMean, OpQuantile, OpMinMax, OpCorrelation}
	codecs := []codec.ID{codec.WAH, codec.BBC, codec.Auto}
	n, bins := 1+int(in.n16)%8192, 1+int(in.bins8)%64
	m, err := binning.NewUniform(0, float64(bins), bins)
	if err != nil {
		return nil, Request{}, false
	}
	var used []int // the bins the data draws from
	for b := 0; b < bins; b++ {
		if in.holes == 0 || b%(int(in.holes)%4+2) != 0 {
			used = append(used, b)
		}
	}
	if len(used) == 0 {
		used = []int{0}
	}
	// Runs of one value broken up by scattered noise: noise 0 is all
	// fills, noise 255 all literals.
	rng := rand.New(rand.NewSource(in.seed))
	gen := func() []float64 {
		data := make([]float64, n)
		run := float64(used[rng.Intn(len(used))])
		for i := range data {
			if rng.Intn(20) == 0 {
				run = float64(used[rng.Intn(len(used))])
			}
			data[i] = run
			if rng.Intn(256) < int(in.noise) {
				data[i] = float64(used[rng.Intn(len(used))])
			}
		}
		return data
	}
	id := codecs[int(in.codecSel)%len(codecs)]
	fx := newOracleFixture(gen(), gen(), m, id, codecs[int(in.seed&3)%len(codecs)])
	req := Request{Op: ops[int(in.opSel)%len(ops)], Q: float64(in.q8) / 255}
	if in.vspan > 0 {
		req.A.ValueLo = float64(in.vlo)
		req.A.ValueHi = req.A.ValueLo + float64(in.vspan)
	}
	if in.sspan > 0 {
		req.A.SpatialLo = int(in.slo) % n
		req.A.SpatialHi = min(n, req.A.SpatialLo+int(in.sspan))
	}
	req.B = Subset{ValueLo: float64(in.vspan) / 2, ValueHi: float64(bins), SpatialLo: req.A.SpatialLo, SpatialHi: req.A.SpatialHi}
	return fx, req, true
}

func (in oracleInput) check(t *testing.T) {
	fx, req, ok := in.fixture()
	if !ok {
		t.Skip()
	}
	for _, lvl := range []accounting{acctNone, acctLight, acctFull} {
		if req.Op == OpCorrelation && req.B.ValueLo >= req.B.ValueHi {
			// An empty or inverted value range is refused, never read as
			// no predicate.
			if _, _, err := run(context.Background(), req, fx.xa, fx.xb, nil, lvl); err == nil {
				t.Fatalf("correlation with B %+v accepted", req.B)
			}
			continue
		}
		fx.check(t, string(req.Op)+" "+req.describe(nil), req, lvl)
	}
}

// TestOracleSeedsReadBothSidesAndLevels: the seed corpus plans value ORs
// that read the selected bins alone, through a group, through the
// complement, and through the complement's groups, and one whose value
// range selects only empty bins — so every fuzz run checks each against
// the model.
func TestOracleSeedsReadBothSidesAndLevels(t *testing.T) {
	seen := map[string]bool{}
	var visit func(p *planNode)
	visit = func(p *planNode) {
		for _, c := range p.children {
			visit(c)
		}
		if p.kind == planEmpty && p.x != nil { // a pruned value OR
			s := Subset{ValueLo: p.vlo, ValueHi: p.vhi}
			for b := 0; b < p.x.Bins(); b++ {
				seen["empty bins"] = seen["empty bins"] || s.binSelected(p.x, b)
			}
		}
		if p.kind != planBinOr {
			return
		}
		side := "selected"
		if p.cover.Complement {
			side = "complement"
		}
		seen[side] = true
		for _, op := range p.cover.Ops {
			if op.Group >= 0 {
				seen[side+"+group"] = true
			}
		}
	}
	for _, in := range oracleSeeds {
		fx, req, ok := in.fixture()
		if !ok || (req.Op != OpBits && req.Op != OpCorrelation) || req.validate(fx.xa, fx.xb, nil) != nil {
			continue
		}
		visit(lower(&req, fx.xa, fx.xb))
	}
	for _, want := range []string{"selected", "selected+group", "complement", "complement+group", "empty bins"} {
		if !seen[want] {
			t.Errorf("no seed plans a value OR reading %s (saw %v)", want, seen)
		}
	}
}

// countLowered counts the plans lower hands out while f runs.
func countLowered(f func()) int {
	n := 0
	testHookLowered = func(*planNode) { n++ }
	defer func() { testHookLowered = nil }()
	f()
	return n
}

// TestOnePlanPerRequest: a bits-shaped request is lowered and optimized
// exactly once however it runs — plain, profiled, or only explained — and a
// count-shaped one never is.
func TestOnePlanPerRequest(t *testing.T) {
	x := explainTestIndex(t, codec.Auto)
	ctx := WithCache(context.Background(), bitcache.New(1<<20))
	for _, req := range oracleRequests(oracleSubsets(x.N())) {
		want := 0
		if req.Op == OpBits || req.Op == OpCorrelation {
			want = 1
		}
		for name, f := range map[string]func(){
			"run":     func() { Run(ctx, req, x, x) },
			"analyze": func() { Analyze(ctx, req, x, x) },
			"light":   func() { run(ctx, req, x, x, nil, acctLight) },
			"explain": func() { ExplainRequest(req, x, x) },
		} {
			if got := countLowered(f); got != want {
				t.Errorf("%s %s %s: lowered %d plans, want %d", name, req.Op, req.describe(nil), got, want)
			}
		}
	}
}

// operators lists a profile's operators in execution order: every node but
// the bin-level leaves (whose number depends on the data, and of which
// EXPLAIN cannot know Quantile's rank-scan).
func operators(n *Node) []string {
	var out []string
	if n.Bin < 0 {
		out = append(out, n.Op)
	}
	for _, c := range n.Children {
		out = append(out, operators(c)...)
	}
	return out
}

// TestExplainMatchesAnalyzeShape: EXPLAIN renders the plan object the
// executor runs, so with no cache to answer from both report the same
// operators in the same order — for every op, correlation included (mask,
// decode-b, joint) — and a provably-empty request estimates zero
// words. (The narrow subset is left
// out: its mask turns out empty only when executed, where the executor
// stops early and EXPLAIN cannot know.)
func TestExplainMatchesAnalyzeShape(t *testing.T) {
	x, xb := explainTestIndex(t, codec.Auto), explainTestIndex(t, codec.WAH)
	ctx := WithCache(context.Background(), nil)
	for _, req := range oracleRequests(oracleSubsets(x.N())[:6]) {
		label := string(req.Op) + " " + req.describe(nil)
		est, err := ExplainRequest(req, x, xb)
		if err != nil {
			t.Fatal(err)
		}
		_, prof, err := Analyze(ctx, req, x, xb)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := operators(est.Root), operators(prof.Root); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: EXPLAIN operators %v, ANALYZE ran %v", label, got, want)
		}
		// A correlation is charged the selected occupied bins only — the
		// mask plan's, the id decode's and the tally's — plus the mask's flat
		// passes, so its estimate stays within the estimator's 4x of what
		// ANALYZE measures.
		if et, at := est.Total().WordsScanned, prof.Total().WordsScanned; req.Op == OpCorrelation && (et > 4*at || at > 4*et) {
			t.Errorf("%s: EXPLAIN estimates %d words, ANALYZE scanned %d (beyond 4x)", label, et, at)
		}
		if req.A.ValueLo == 100 {
			if w := est.Total().WordsScanned; w != 0 {
				t.Errorf("%s: provably empty, yet EXPLAIN estimates %d words:\n%s", label, w, est.Render())
			}
			if !containsNote(est.Root, "provably empty") && req.Op == OpBits {
				t.Errorf("%s: EXPLAIN lost the provably-empty note:\n%s", label, est.Render())
			}
		}
	}
}

// TestCacheGenerationInvalidationMidStream simulates the in-situ pipeline
// publishing a new step in the middle of a query stream: cached results for
// the superseded index generation are invalidated, and queries against the
// re-published index never see stale bitmaps (its new generation makes the
// old keys unreachable even before the invalidation sweep runs).
func TestCacheGenerationInvalidationMidStream(t *testing.T) {
	cache := bitcache.New(1 << 20)
	ctx := WithCache(context.Background(), cache)
	x := explainTestIndex(t, codec.WAH)
	s := Subset{ValueLo: 2, ValueHi: 6}

	v1, err := Bits(ctx, x, s) // cold: miss + store
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Bits(ctx, x, s); err != nil { // warm: hit
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("expected a warm hit, stats %+v", st)
	}
	oldGen := x.Generation()

	// "Publish a new step": the index is re-encoded (Recode stamps a fresh
	// generation, exactly as a newly built step index would carry one) and
	// the pipeline invalidates the superseded generation.
	x.Recode(codec.BBC)
	if x.Generation() == oldGen {
		t.Fatal("Recode did not bump the index generation")
	}
	cache.InvalidateGeneration(oldGen)
	if st := cache.Stats(); st.Invalidations == 0 {
		t.Fatalf("expected invalidations, stats %+v", st)
	}

	preMisses := cache.Stats().Misses
	v2, err := Bits(ctx, x, s) // must recompute under the new generation
	if err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Misses == preMisses {
		t.Fatal("query after publish served a stale cached bitmap")
	}
	assertCanonicalEqual(t, "pre/post publish", v2, v1) // same logical data either way
	want := newModel(explainTestData(x.N()), x.Mapper()).answer(Request{Op: OpBits, A: s}, nil)
	assertCanonicalEqual(t, "post-publish vs model", v2, want.Bits)
}

// TestPlannerExplainShowsDecisions locks in the user-visible optimizer
// output: plan-order notes and, under ANALYZE with a cache, per-node
// hit/miss annotations.
func TestPlannerExplainShowsDecisions(t *testing.T) {
	x := explainTestIndex(t, codec.WAH)
	s := Subset{ValueLo: 1, ValueHi: 7, SpatialLo: 31, SpatialHi: x.N() - 31}
	prof, err := Explain(x, s, OpBits)
	if err != nil {
		t.Fatal(err)
	}
	if !containsNote(prof.Root, "most-selective-first") {
		t.Fatalf("EXPLAIN lost the operand-order note:\n%s", prof.Render())
	}

	ctx := WithCache(context.Background(), bitcache.New(1<<20))
	if _, _, err := BitsAnalyze(ctx, x, s); err != nil {
		t.Fatal(err)
	}
	_, p2, err := BitsAnalyze(ctx, x, s)
	if err != nil {
		t.Fatal(err)
	}
	if !hasCacheVerdict(p2.Root, "hit") {
		t.Fatalf("warm ANALYZE shows no cache hit:\n%s", p2.Render())
	}
}

func containsNote(n *Node, sub string) bool {
	if n == nil {
		return false
	}
	if strings.Contains(n.Detail, sub) {
		return true
	}
	for _, c := range n.Children {
		if containsNote(c, sub) {
			return true
		}
	}
	return false
}

func hasCacheVerdict(n *Node, verdict string) bool {
	if n == nil {
		return false
	}
	if n.Cache == verdict {
		return true
	}
	for _, c := range n.Children {
		if hasCacheVerdict(c, verdict) {
			return true
		}
	}
	return false
}
