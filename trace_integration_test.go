// End-to-end acceptance for per-request tracing: one slow query is
// traceable from the slow-query log record, through the trace ID it
// carries, to the span tree served at /debug/traces — which must cover the
// query, its per-operand codec work, and the store read that loaded the
// index — with the served JSON parsed by an independent decoder.
package insitubits_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"insitubits"
)

func TestSlowQueryTraceEndToEnd(t *testing.T) {
	// Identity tracing on (keep everything), slow-query log at threshold 0
	// so the query is guaranteed to be "slow".
	rec := insitubits.NewTraceRecorder(insitubits.TraceConfig{})
	insitubits.SetTraceRecorder(rec)
	defer insitubits.SetTraceRecorder(nil)
	var slowLog bytes.Buffer
	insitubits.SetSlowQueryLog(slog.New(slog.NewJSONHandler(&slowLog, nil)), 0)
	defer insitubits.SetSlowQueryLog(nil, 0)

	// Build an index and serialize it, as the pipeline would have.
	rng := rand.New(rand.NewSource(7))
	data := make([]float64, 4096)
	for i := range data {
		data[i] = rng.Float64()
	}
	m, err := insitubits.NewUniformBins(0, 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if _, err := insitubits.WriteIndexFile(&file, insitubits.BuildIndex(data, m)); err != nil {
		t.Fatal(err)
	}

	// The traced request: read the index back, then query it, all under
	// one root span.
	ctx, root := insitubits.StartSpan(context.Background(), "request")
	if root == nil {
		t.Fatal("tracing not active")
	}
	traceID := insitubits.TraceIDOf(ctx)
	x, err := insitubits.ReadIndexFileCtx(ctx, bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The spatial restriction forces real bitmap scans (a value-only count
	// is answered from cached cardinalities and consumes no operands).
	n, err := insitubits.SubsetCount(ctx, x, insitubits.QuerySubset{
		ValueLo: 0.25, ValueHi: 0.75, SpatialLo: 0, SpatialHi: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 || n >= 2048 {
		t.Fatalf("implausible count %d", n)
	}
	root.End()

	// 1. The slow-query log record carries the trace ID.
	logLine := slowLog.String()
	if !strings.Contains(logLine, `"trace_id":"`+traceID+`"`) {
		t.Fatalf("slow-query log does not carry trace_id %s:\n%s", traceID, logLine)
	}

	// 2. Fetching that ID from the live /debug/traces endpoint returns the
	// trace as JSON.
	dbg, err := insitubits.Telemetry.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	url := fmt.Sprintf("http://%s/debug/traces?id=%s", dbg.Addr, traceID)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}

	// 3. An independent decode of the trace shows the full span tree:
	// query → per-operand codec ops → store read, every span linked to a
	// parent in the same trace and one root.
	var doc struct {
		TraceID string `json:"trace_id"`
		Spans   []struct {
			SpanID   string `json:"span_id"`
			ParentID string `json:"parent_id"`
			Name     string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("independent parse of the trace: %v", err)
	}
	if doc.TraceID != traceID {
		t.Errorf("trace_id = %q, want %q", doc.TraceID, traceID)
	}
	names := map[string]bool{}
	ids := map[string]bool{}
	for _, sp := range doc.Spans {
		names[sp.Name] = true
		ids[sp.SpanID] = true
	}
	roots := 0
	for _, sp := range doc.Spans {
		switch {
		case sp.ParentID == "":
			roots++
			if sp.Name != "request" {
				t.Errorf("root span %q, want request", sp.Name)
			}
		case !ids[sp.ParentID]:
			t.Errorf("span %s has parent %s outside trace %s", sp.Name, sp.ParentID, traceID)
		}
	}
	if roots != 1 {
		t.Errorf("trace %s has %d roots, want 1", traceID, roots)
	}
	for _, want := range []string{"request", "query.count", "store.read_index"} {
		if !names[want] {
			t.Errorf("span %q missing from trace %s: have %v", want, traceID, names)
		}
	}
	operand := false
	for name := range names {
		if strings.HasPrefix(name, "operand.") {
			operand = true
		}
	}
	if !operand {
		t.Errorf("no per-operand codec spans in trace: %v", names)
	}

	// 4. The trace list endpoint knows the trace too.
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/traces", dbg.Addr))
	if err != nil {
		t.Fatal(err)
	}
	listBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(listBody, []byte(traceID)) {
		t.Errorf("trace %s not in /debug/traces listing", traceID)
	}
}

// TestRunStatusEndpoint drives a small pipeline and checks the live
// /debug/run dashboard payload it publishes.
func TestRunStatusEndpoint(t *testing.T) {
	reg := insitubits.NewTelemetryRegistry()
	sim, err := insitubits.NewHeat3D(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := insitubits.PipelineConfig{
		Sim:       sim,
		Steps:     6,
		Select:    2,
		Bins:      16,
		Method:    insitubits.MethodBitmaps,
		Metric:    insitubits.MetricConditionalEntropy,
		Cores:     2,
		Telemetry: reg,
	}
	if _, err := insitubits.RunPipeline(cfg); err != nil {
		t.Fatal(err)
	}
	dbg, err := reg.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/run", dbg.Addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/run: %s", resp.Status)
	}
	var st insitubits.RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Done {
		t.Error("finished run not marked done")
	}
	if st.Workload != "heat3d" || st.Method != "bitmaps" || st.Strategy != "c_all" {
		t.Errorf("run identity: %+v", st)
	}
	if st.Steps != 6 || st.StepsDone != 6 || st.Selected != 2 {
		t.Errorf("run progress: steps %d/%d, selected %d", st.StepsDone, st.Steps, st.Selected)
	}
	if st.CodecBins["wah"]+st.CodecBins["bbc"]+st.CodecBins["other"] == 0 {
		t.Errorf("no codec mix recorded: %+v", st.CodecBins)
	}
	if len(st.Phases) == 0 || st.Phases["simulate"].Count == 0 {
		t.Errorf("phase aggregates missing: %+v", st.Phases)
	}
	if time.Duration(st.ElapsedNs) <= 0 {
		t.Errorf("elapsed %d", st.ElapsedNs)
	}
}
