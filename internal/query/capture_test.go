package query

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/bitcache"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/qlog"
	"insitubits/internal/telemetry"
)

// withCaptureLog installs a fresh workload log for the test body and
// returns the parsed records after closing it.
func withCaptureLog(t *testing.T, body func(ctx context.Context)) []qlog.Record {
	t.Helper()
	path := filepath.Join(t.TempDir(), "workload.isql")
	w, err := qlog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	qlog.Install(w)
	defer qlog.Install(nil)
	body(context.Background())
	qlog.Install(nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := qlog.ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestCaptureWorkload drives every plain entry point with a workload log
// installed and checks the captured records carry parameters, plan
// digests, measured costs, and result digests that match an independent
// re-execution.
func TestCaptureWorkload(t *testing.T) {
	x := explainTestIndex(t, codec.Auto)
	xb := explainTestIndex(t, codec.WAH)
	sub := Subset{ValueLo: 1, ValueHi: 5, SpatialLo: 31, SpatialHi: x.N() - 31}
	masked, err := NewMasked(x, fillVector(1, x.N()))
	if err != nil {
		t.Fatal(err)
	}
	recs := withCaptureLog(t, func(ctx context.Context) {
		if _, err := Bits(ctx, x, sub); err != nil {
			t.Fatal(err)
		}
		if _, err := Count(ctx, x, sub); err != nil {
			t.Fatal(err)
		}
		if _, err := Sum(ctx, x, sub); err != nil {
			t.Fatal(err)
		}
		if _, err := Mean(ctx, x, sub); err != nil {
			t.Fatal(err)
		}
		if _, err := Quantile(ctx, x, sub, 0.5); err != nil {
			t.Fatal(err)
		}
		if _, _, err := MinMax(ctx, x, sub); err != nil {
			t.Fatal(err)
		}
		if _, err := Correlation(ctx, x, xb, sub, Subset{ValueLo: 2, ValueHi: 6,
			SpatialLo: sub.SpatialLo, SpatialHi: sub.SpatialHi}); err != nil {
			t.Fatal(err)
		}
		if _, err := SumMasked(ctx, x, fillVector(1, x.N())); err != nil {
			t.Fatal(err)
		}
		if _, err := masked.Sum(ctx, sub); err != nil {
			t.Fatal(err)
		}
		// A failing query must still capture, with the error recorded.
		if _, err := Count(ctx, x, Subset{SpatialLo: -5, SpatialHi: 10}); err == nil {
			t.Fatal("expected validation error")
		}
	})
	wantOps := []string{"bits", "count", "sum", "mean", "quantile", "minmax",
		"correlation", "sum-masked", "masked-sum", "count"}
	if len(recs) != len(wantOps) {
		t.Fatalf("captured %d records, want %d", len(recs), len(wantOps))
	}
	for i, r := range recs {
		if r.Op != wantOps[i] {
			t.Errorf("record %d op = %q, want %q", i, r.Op, wantOps[i])
		}
		if r.PlanDigest == "" {
			t.Errorf("record %d (%s): empty plan digest", i, r.Op)
		}
		if r.ElapsedNs <= 0 {
			t.Errorf("record %d (%s): elapsed = %d", i, r.Op, r.ElapsedNs)
		}
	}
	last := recs[len(recs)-1]
	if last.Err == "" || last.Result != "" || last.Replayable() {
		t.Errorf("failed query record = %+v", last)
	}
	for i, r := range recs[:len(recs)-1] {
		if r.Err != "" || r.Result == "" {
			t.Errorf("record %d (%s): err=%q result=%q", i, r.Op, r.Err, r.Result)
		}
	}
	// Parameters and index identity round-trip.
	count := recs[1]
	if count.ValueLo != sub.ValueLo || count.ValueHi != sub.ValueHi ||
		count.SpatialLo != sub.SpatialLo || count.SpatialHi != sub.SpatialHi {
		t.Errorf("count params = %+v", count)
	}
	if count.N != x.N() || count.Gen != x.Generation() {
		t.Errorf("count n/gen = %d/%d", count.N, count.Gen)
	}
	if count.Words <= 0 || count.Bins <= 0 || count.Rows <= 0 {
		t.Errorf("count measured cost = words=%d bins=%d rows=%d", count.Words, count.Bins, count.Rows)
	}
	// The recorded digest equals an independent re-execution's digest.
	n, err := Count(context.Background(), x, sub)
	if err != nil {
		t.Fatal(err)
	}
	if want := qlog.DigestInt(n); count.Result != want {
		t.Errorf("count digest = %s, replayed %s", count.Result, want)
	}
	corr := recs[6]
	if !corr.Correlated || corr.BValueLo != 2 || corr.BValueHi != 6 || corr.GenB != xb.Generation() {
		t.Errorf("correlation record = %+v", corr)
	}
	if recs[4].Q != 0.5 {
		t.Errorf("quantile q = %g", recs[4].Q)
	}
}

// TestLightAccountingMatchesFull pins the exactness contract of
// capture-only (light) profiles: the totals the workload log records —
// words scanned, bytes decoded, bins touched, rows — must be identical to
// full ANALYZE accounting; only the fill/literal composition split (which
// costs an extra scan of every operand) is skipped.
func TestLightAccountingMatchesFull(t *testing.T) {
	ctx := context.Background()
	sub := Subset{ValueLo: 1, ValueHi: 5, SpatialLo: 31, SpatialHi: 31 * 20}
	for _, c := range []codec.ID{codec.WAH, codec.BBC} {
		x := explainTestIndex(t, c)
		check := func(op string, full, light *Profile) {
			t.Helper()
			f, l := full.Total(), light.Total()
			if l.WordsScanned != f.WordsScanned || l.BytesDecoded != f.BytesDecoded ||
				l.BinsTouched != f.BinsTouched || l.Rows != f.Rows {
				t.Errorf("%s/%v: light totals %+v != full totals %+v", op, c, l, f)
			}
			if f.FillWords+f.LiteralWords == 0 {
				t.Errorf("%s/%v: full profile has no composition split", op, c)
			}
			if l.FillWords != 0 || l.LiteralWords != 0 || l.FillSegments != 0 {
				t.Errorf("%s/%v: light profile paid the composition pass: %+v", op, c, l)
			}
		}
		for _, op := range []Op{OpCount, OpSum, OpBits} {
			req := Request{Op: op, A: sub}
			_, pf, err := run(ctx, req, x, nil, nil, acctFull)
			if err != nil {
				t.Fatal(err)
			}
			_, pl, err := run(ctx, req, x, nil, nil, acctLight)
			if err != nil {
				t.Fatal(err)
			}
			check(string(op), pf, pl)
		}
	}
}

// TestCaptureDisabledByDefault: without an installed writer the plain path
// stays plain — nothing panics and nothing is recorded anywhere.
func TestCaptureDisabledByDefault(t *testing.T) {
	if installedAccounting() != acctNone {
		t.Fatal("accounting enabled with no sink installed")
	}
	x := explainTestIndex(t, codec.Auto)
	if _, err := Count(context.Background(), x, Subset{ValueLo: 1, ValueHi: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanDigestStability: the digest is a function of the logical plan —
// identical across repeats and cache warmth, different across parameters.
func TestPlanDigestStability(t *testing.T) {
	x := explainTestIndex(t, codec.Auto)
	sub := Subset{ValueLo: 1, ValueHi: 5, SpatialLo: 0, SpatialHi: 100}
	digest := func() string {
		_, p, err := BitsAnalyze(context.Background(), x, sub)
		if err != nil {
			t.Fatal(err)
		}
		if p.PlanDigest == "" {
			t.Fatal("empty plan digest")
		}
		return p.PlanDigest
	}
	d1 := digest()
	if d2 := digest(); d2 != d1 {
		t.Errorf("plan digest unstable: %s then %s", d1, d2)
	}
	// Cache warmth must not change the plan digest.
	ctx := WithCache(context.Background(), bitcache.New(16<<20))
	_, p1, err := BitsAnalyze(ctx, x, sub)
	if err != nil {
		t.Fatal(err)
	}
	_, p2, err := BitsAnalyze(ctx, x, sub)
	if err != nil {
		t.Fatal(err)
	}
	if p1.PlanDigest != d1 || p2.PlanDigest != d1 {
		t.Errorf("cache warmth changed plan digest: %s / %s vs %s", p1.PlanDigest, p2.PlanDigest, d1)
	}
	if p1.cacheVerdict() != "miss" || p2.cacheVerdict() != "hit" {
		t.Errorf("cache verdicts = %q, %q", p1.cacheVerdict(), p2.cacheVerdict())
	}
	// Different parameters change the digest.
	_, p3, err := BitsAnalyze(context.Background(), x, Subset{ValueLo: 2, ValueHi: 5, SpatialLo: 0, SpatialHi: 100})
	if err != nil {
		t.Fatal(err)
	}
	if p3.PlanDigest == d1 {
		t.Error("different parameters share a plan digest")
	}
}

// TestSlowLogCarriesPlanDigest: satellite — slow-log records join against
// qlog/replay output by plan digest.
func TestSlowLogCarriesPlanDigest(t *testing.T) {
	x := explainTestIndex(t, codec.Auto)
	var buf bytes.Buffer
	SetSlowLog(slog.New(slog.NewJSONHandler(&buf, nil)), 0)
	defer SetSlowLog(nil, 0)
	if _, err := Count(context.Background(), x, Subset{ValueLo: 1, ValueHi: 3}); err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("slow-log record not JSON: %v\n%s", err, buf.String())
	}
	digest, _ := rec["plan_digest"].(string)
	if digest == "" {
		t.Errorf("slow-log record missing plan_digest attr: %s", buf.String())
	}
}

func TestFormatBins(t *testing.T) {
	cases := []struct {
		in   []int
		want string
	}{
		{nil, ""},
		{[]int{3}, "3"},
		{[]int{1, 2, 3}, "1-3"},
		{[]int{0, 2, 3, 4, 9}, "0,2-4,9"},
	}
	for _, tc := range cases {
		if got := formatBins(tc.in); got != tc.want {
			t.Errorf("formatBins(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestQlogCaptureOverhead guards the budget for capture: with a workload
// log installed, scan-dominated queries (the shape capture is built for)
// must stay within 5% of the capture-off path, as telemetry.MeasureOverhead
// reads it. That is the work capture exists to do — 2–3% on this workload:
// the record's JSON encoding and queueing, the result and plan digests, and
// the drain goroutine's buffered writes — plus a margin for the shared
// host's noise (docs/OBSERVABILITY.md). The index is deliberately larger
// than the other guards' — capture cost is per-query while query cost
// scales with the data, and the bound certifies the production regime, not
// toy indexes. Gated like the other wall-clock guards
// (TELEMETRY_OVERHEAD_GUARD=1, via `make overhead`).
func TestQlogCaptureOverhead(t *testing.T) {
	if os.Getenv("TELEMETRY_OVERHEAD_GUARD") == "" {
		t.Skip("set TELEMETRY_OVERHEAD_GUARD=1 to run the timing guard (make overhead)")
	}
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	telemetry.SetTraceRecorder(nil)
	m, err := binning.NewUniform(0, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := index.BuildCodec(explainTestData(31*20000), m, codec.Auto)
	w, err := qlog.Create(filepath.Join(t.TempDir(), "guard.isql"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		qlog.Install(nil)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if h := w.Health(); h.Dropped != 0 || h.Errors != 0 {
			t.Fatalf("writer health during guard: %+v", h)
		}
	}()
	overhead, q1, q3 := telemetry.MeasureOverhead(400, func(on bool) {
		if on {
			qlog.Install(w)
		} else {
			qlog.Install(nil)
		}
	}, func() {
		for i := 0; i < 40; i++ {
			queryWorkload(x)
		}
	})
	t.Logf("capture-enabled query path: median overhead %.2f%% (quartiles %.2f%%, %.2f%%)", 100*overhead, 100*q1, 100*q3)
	if overhead > 0.05 {
		t.Errorf("qlog capture overhead %.2f%% exceeds the 5%% budget", 100*overhead)
	}
}
