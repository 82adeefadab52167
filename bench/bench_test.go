package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Every workload end to end at toy sizes: both children are built and
// spawned, every oracle runs, both runs report every metric, and nothing is
// left behind. The numbers are discarded.
func TestQuickAllWorkloads(t *testing.T) {
	var stdout, stderr bytes.Buffer
	o := options{workload: "all", seed: 1, seconds: 0.2, trace: -1, quick: true}
	if code := run(context.Background(), o, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workloads reported, want %d", len(rep.Workloads), len(workloads))
	}
	if rep.Seed != 1 || rep.Sizes != quickSizes || rep.Env.GoVersion == "" || rep.Env.NProc == 0 || rep.Env.Cores != benchCores {
		t.Errorf("seed, sizes or environment not echoed: %+v", rep)
	}
	for i, wr := range rep.Workloads {
		if wr.Workload != workloads[i].name {
			t.Errorf("workload %d is %s, want %s", i, wr.Workload, workloads[i].name)
		}
		if wr.FailRatio != 0 || wr.EndToEnd == nil || wr.PerLayer == nil {
			t.Fatalf("%s: fail_ratio %g, end_to_end %v, per_layer %v\n%s", wr.Workload, wr.FailRatio, wr.EndToEnd, wr.PerLayer, stderr.String())
		}
		for _, m := range endToEndFor(wr.Workload) {
			if s, ok := wr.EndToEnd.Metrics[m.Name]; !ok || s.Value <= 0 || s.Unit != m.Unit || s.N < 1 {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s with a sample count", wr.Workload, m.Name, s, m.Unit)
			}
		}
		for _, m := range perLayer {
			if s, ok := wr.PerLayer.Metrics[m.Name]; !ok || s.Unit != m.Unit {
				t.Errorf("%s: per-layer %s = %+v, want unit %s", wr.Workload, m.Name, s, m.Unit)
			}
		}
		if wr.PerLayer.Metrics["trace.op_ms"].Value <= 0 || wr.PerLayer.Metrics["bitvec.words_total"].Value <= 0 {
			t.Errorf("%s: the traced run did not measure its unit of work or its bitmaps", wr.Workload)
		}
		var tf traceFile
		data, err := os.ReadFile(wr.TraceFile)
		if err == nil {
			err = json.Unmarshal(data, &tf)
		}
		if err != nil || len(tf.Spans) == 0 || tf.Workload != wr.Workload {
			t.Errorf("%s: span file %s: %v (%d spans)", wr.Workload, wr.TraceFile, err, len(tf.Spans))
		}
		for _, s := range tf.Spans {
			if s.End < s.Start || s.Name == "" {
				t.Errorf("%s: malformed span %+v", wr.Workload, s)
				break
			}
		}
	}
	// The rows of the in-situ table sum to the whole-step time by construction.
	heat := rep.Workloads[0].PerLayer.Metrics
	sum := heat["insitu.self_ms"].Value
	for _, name := range []string{"sim.step_ms", "index.build_ms", "codec.recode_ms", "selection.score_ms", "store.write_ms"} {
		sum += heat[name].Value
	}
	if step := heat["trace.op_ms"].Value; sum < 0.999*step || sum > 1.001*step {
		t.Errorf("insitu_heat3d rows sum to %g ms, whole step %g ms", sum, step)
	}
	srv := rep.Workloads[3].PerLayer.Metrics
	if sum, rtt := srv["serve.query_p50_us"].Value+srv["serve.self_us"].Value+srv["serve.net_us"].Value, srv["serve.rtt_p50_us"].Value; sum < 0.999*rtt || sum > 1.001*rtt {
		t.Errorf("serve_light rows sum to %g us, round trip %g us", sum, rtt)
	}

	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	left, _ := filepath.Glob(filepath.Join(root, ".bench_build", "work", "p"+"*", "*"))
	if len(left) != 0 {
		t.Errorf("scratch left behind: %v", left)
	}
}

// The single-workload forms print the contract's object as the last line.
func TestContractLines(t *testing.T) {
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		var stdout, stderr bytes.Buffer
		o := options{workload: "insitu_lulesh", seed: 2, seconds: 0.1, trace: trace, quick: true}
		if code := run(context.Background(), o, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %d: exit code %d\n%s", trace, code, stderr.String())
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal(lastLine(stdout.Bytes()), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Fatalf("trace %d: keys of the contract line: %s", trace, lastLine(stdout.Bytes()))
		}
		var metrics map[string]struct {
			Value *float64
			Unit  string
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(defs) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(metrics), len(defs))
		}
		for _, m := range defs {
			if got, ok := metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
				t.Errorf("trace %d: metric %s = %+v, want a value in %s", trace, m.Name, got, m.Unit)
			}
		}
	}
}

// BENCHMARK.json at the root is generated from the tables in metrics.go
// (`go run . manifest > ../BENCHMARK.json`) and honours the contract's limits.
func TestManifestInSync(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run . manifest > ../BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(m metricDef) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v breaks the naming limits or repeats", m)
		}
		seen[m.Name] = true
	}
	for _, m := range endToEnd {
		check(m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		check(m)
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s breaks the naming limits", w.name)
		}
		seen[w.name] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 || len(onDisk) > 64<<10 {
		t.Error("BENCHMARK.json exceeds the contract's counts or size")
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower is better")
	}
	// run_seconds: 4 + 22 x workloads runs must fit 3420 s with their set-up.
	if runs := 4 + 22*len(workloads); float64(runs)*(runSeconds+12) > 3420-300 {
		t.Errorf("%d runs of %d s plus set-up do not fit the contract's total", runs, runSeconds)
	}
}

func TestCompare(t *testing.T) {
	mk := func(opMs []float64, failRatio float64) string {
		path := filepath.Join(t.TempDir(), "set.jsonl")
		for _, v := range opMs {
			res := newResult()
			for _, m := range endToEnd {
				res.put(m.Name, 1, m.Unit, 1)
			}
			res.put("op_ms", v, "ms", 5)
			rep := report{Workloads: []workloadReport{{Workload: "insitu_heat3d", EndToEnd: res, FailRatio: failRatio}}}
			if err := appendJSONLine(path, rep); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := mk([]float64{100, 101, 99}, 0)
	for _, c := range []struct {
		name    string
		cand    string
		code    int
		verdict string
	}{
		{"same commit", mk([]float64{101, 100, 102}, 0), 0, verdictWithin},
		{"40% slower", mk([]float64{140, 141, 139}, 0), 1, verdictRegressed},
		{"too noisy to tell", mk([]float64{40, 100, 160}, 0), 0, verdictUnresolved},
		{"an operation failed", mk([]float64{100, 101, 99}, 0.01), 1, verdictRegressed},
	} {
		var out bytes.Buffer
		if code := compareMain([]string{base, c.cand}, &out); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: no %q verdict in\n%s", c.name, c.verdict, out.String())
		}
	}
	if code := compareMain([]string{base}, &bytes.Buffer{}); code != 2 {
		t.Errorf("missing argument: exit code %d, want 2", code)
	}
}
