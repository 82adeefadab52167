package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/insitu"
	"insitubits/internal/mining"
	"insitubits/internal/query"
	"insitubits/internal/serve"
)

func TestBruteForceOnHandCountedData(t *testing.T) {
	m, err := binning.NewUniform(0, 10, 5) // bins [0,2) [2,4) [4,6) [6,8) [8,10)
	if err != nil {
		t.Fatal(err)
	}
	raw := []float64{1, 3, 5, 7, 9, 0.5, 2.5, 4.5, 6.5, 8.5}
	a := newBinned(raw, m)
	// [2.1, 5.9) overlaps bins 1 and 2, which are selected whole.
	sub := query.Subset{ValueLo: 2.1, ValueHi: 5.9}
	e := bruteForce(batchQuery{Op: "sum", A: sub}, a, a)
	if e.Count != 4 || e.Sum != 3+5+2.5+4.5 || e.Min != 2.5 || e.Max != 5 {
		t.Errorf("value subset: %+v", e)
	}
	sub.SpatialLo, sub.SpatialHi = 0, 5
	if e := bruteForce(batchQuery{Op: "count", A: sub}, a, a); e.Count != 2 {
		t.Errorf("value+spatial subset: count %d, want 2", e.Count)
	}
	// All ten elements, median rank int(0.5*9)+1 = 5 -> the fifth smallest.
	if e := bruteForce(batchQuery{Op: "quantile", Q: 0.5}, a, a); e.Quantile != 4.5 {
		t.Errorf("median %g, want 4.5", e.Quantile)
	}
	// A variable is fully informative about itself: MI = H = log2(5 bins).
	if e := bruteForce(batchQuery{Op: "correlation"}, a, a); math.Abs(e.MI-math.Log2(5)) > 1e-12 || e.Count != 10 {
		t.Errorf("self correlation: %+v, want MI log2(5)", e)
	}
}

// quickOcean builds the quick-size ocean and its two indexes.
func quickOcean(t *testing.T) (*oceanData, [2]*index.Index) {
	t.Helper()
	od, err := genOcean(quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	var xs [2]*index.Index
	for i := range xs {
		xs[i] = index.BuildParallel(od.raw[i], od.mappers[i], benchCores).Recode(codec.Auto)
	}
	return od, xs
}

func TestOracleAgreesWithQueryLayerAndCatchesWrongAnswers(t *testing.T) {
	od, xs := quickOcean(t)
	sz := quickSizes
	sz.BatchQueries = 120
	a, b := newBinned(od.raw[0], od.mappers[0]), newBinned(od.raw[1], od.mappers[1])
	ctx := context.Background()
	for _, q := range genBatch(sz, 5, od) {
		want := bruteForce(q, a, b)
		for _, analyze := range []bool{false, true} {
			got, _, err := execQuery(ctx, q, xs, analyze)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkAnswer(q, got, want); err != nil {
				t.Errorf("analyze=%v: %v", analyze, err)
			}
		}
		if err := checkAnswer(q, wrongAnswer(), want); err == nil {
			t.Errorf("%s: the deliberately wrong answer passed", q.Op)
		}
	}
}

func TestSameSelection(t *testing.T) {
	if err := sameSelection([]int{0, 3, 7}, []int{0, 3, 7}); err != nil {
		t.Error(err)
	}
	if err := sameSelection([]int{0, 3, 6}, []int{0, 3, 7}); err == nil {
		t.Error("a different selection passed")
	}
}

// The full-data reference run selects what the bitmap run selects.
func TestFullDataReferenceSelection(t *testing.T) {
	for _, w := range []string{"insitu_heat3d", "insitu_lulesh"} {
		spec := insituSpecFor(quickSizes, w)
		var sel [2][]int
		for i, method := range []insitu.Method{insitu.FullData, insitu.Bitmaps} {
			cfg, err := spec.config(method, "")
			if err != nil {
				t.Fatal(err)
			}
			res, err := insitu.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sel[i] = res.Selected
		}
		if err := sameSelection(sel[1], sel[0]); err != nil {
			t.Errorf("%s: %v", w, err)
		}
		if len(sel[0]) != spec.keep {
			t.Errorf("%s: kept %d steps, want %d", w, len(sel[0]), spec.keep)
		}
	}
}

func TestSameFindings(t *testing.T) {
	od, xs := quickOcean(t)
	cfg := mining.Config{UnitSize: quickSizes.MineUnit, ValueThreshold: quickSizes.MineT, SpatialThreshold: quickSizes.MineTPrime}
	want, err := mining.MineFullData(od.raw[0], od.raw[1], od.mappers[0], od.mappers[1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mining.Mine(xs[0], xs[1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("the quick ocean mines nothing; the comparison would be vacuous")
	}
	if err := sameFindings(got, want); err != nil {
		t.Error(err)
	}
	if err := sameFindings(got[1:], want); err == nil {
		t.Error("a missing finding passed")
	}
	moved := append([]mining.Finding(nil), got...)
	moved[0].Unit++
	if err := sameFindings(moved, want); err == nil {
		t.Error("a finding in the wrong unit passed")
	}
}

func TestServedAgainstInProcess(t *testing.T) {
	od, xs := quickOcean(t)
	vars := map[string]*index.Index{oceanVars[0]: xs[0], oceanVars[1]: xs[1]}
	ctx := context.Background()
	for _, req := range genHotSet(quickSizes, 5, od) {
		digest, err := inProcess(ctx, &req, vars)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkServed(ctx, &req, digest, vars); err != nil {
			t.Error(err)
		}
		if err := checkServed(ctx, &req, digest+"0", vars); err == nil {
			t.Errorf("%s: a wrong digest passed", req.Op)
		}
	}
	if _, err := inProcess(ctx, &serve.QueryRequest{Op: "bits", Var: oceanVars[0]}, vars); err == nil {
		t.Error("a heavy op was accepted into the light mix")
	}
}

// One deliberately wrong answer must show as fail_ratio > 0 and a non-zero
// exit, on an otherwise healthy run.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	o := options{workload: "offline_ocean", seed: 1, seconds: 0.05, trace: 0, quick: true, sabotage: true}
	if code := run(context.Background(), o, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1\n%s", code, stderr.String())
	}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
	}
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Failed == 0 || line.Failed >= line.Attempted {
		t.Errorf("contract line %+v: want correct=false with a few failures among many operations", line)
	}
	if !strings.Contains(stderr.String(), "FAILED:") {
		t.Errorf("the report does not name the failure:\n%s", stderr.String())
	}
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}
