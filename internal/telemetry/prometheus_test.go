package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// promParse is a minimal independent validator of the text exposition
// format: every non-comment line must be `name{labels} value` or
// `name value`, and every sample's base name must have been declared by a
// preceding `# TYPE` line (summaries declare the bare name; their _sum and
// _count suffixes ride on it).
func promParse(t *testing.T, text string) map[string]string {
	t.Helper()
	types := map[string]string{}
	samples := 0
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		rest := line[len(name):]
		if strings.HasPrefix(rest, "{") {
			end := strings.Index(rest, "}")
			if end < 0 {
				t.Fatalf("line %d: unterminated label set in %q", ln+1, line)
			}
			rest = rest[end+1:]
		}
		var value float64
		if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g", &value); err != nil {
			t.Fatalf("line %d: unparseable value in %q: %v", ln+1, line, err)
		}
		base := name
		for _, suffix := range []string{"_sum", "_count", "_bucket"} {
			if cut, ok := strings.CutSuffix(name, suffix); ok && types[cut] != "" {
				base = cut
				break
			}
		}
		if types[base] == "" {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", ln+1, name)
		}
		if !strings.HasPrefix(name, "insitubits_") {
			t.Fatalf("line %d: metric %q missing insitubits_ prefix", ln+1, name)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("no samples in exposition output")
	}
	return types
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("query.count").Add(7)
	r.Gauge("queue.depth").Set(3)
	h := r.Histogram("query.latency_ns")
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 1000)
	}
	r.SetBuildInfo(map[string]string{"version": `v"1`}) // exercises label escaping

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	types := promParse(t, text)

	if types["insitubits_query_count_total"] != "counter" {
		t.Errorf("query.count not exposed as counter; types=%v", types)
	}
	if types["insitubits_queue_depth"] != "gauge" || types["insitubits_queue_depth_max"] != "gauge" {
		t.Errorf("queue.depth gauge/max missing; types=%v", types)
	}
	if types["insitubits_query_latency_ns"] != "summary" {
		t.Errorf("latency histogram not exposed as summary; types=%v", types)
	}
	for _, want := range []string{
		"insitubits_query_count_total 7",
		`quantile="0.99"`,
		"insitubits_query_latency_ns_count 100",
		`insitubits_build_info{version="v\"1"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var r *Registry
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil registry wrote %q", sb.String())
	}
}

func TestMetricsEndpointAndShutdown(t *testing.T) {
	r := NewRegistry()
	r.Counter("store.bytes_written").Add(42)
	d, err := r.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + d.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("wrong content type %q", ct)
	}
	promParse(t, string(body))
	if !strings.Contains(string(body), "insitubits_store_bytes_written_total 42") {
		t.Errorf("counter missing from /metrics:\n%s", body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The listener must be released: the same address can be rebound.
	d2, err := r.ServeDebug(d.Addr)
	if err != nil {
		t.Fatalf("rebind after shutdown: %v", err)
	}
	d2.Close()

	// Nil-safety of the lifecycle methods.
	var nilSrv *DebugServer
	if err := nilSrv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := nilSrv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryExemplarRoundTrip records latency samples stamped with known
// trace IDs and reads them back from /telemetry with a decoder of its own:
// each trace ID arrives with its exact value beside the histogram's count,
// so a slow bucket still leads to /debug/traces?id=.
func TestTelemetryExemplarRoundTrip(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("query.latency_ns")
	// Two traced samples in different magnitude bands plus untraced bulk.
	h.RecordExemplar(900, "tracefast01")
	h.RecordExemplar(2_000_000, "traceslow02")
	for i := 0; i < 100; i++ {
		h.Record(int64(1000 + i))
	}
	srv, err := reg.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Histograms map[string]struct {
			Count     int64 `json:"count"`
			Exemplars []struct {
				Value   int64  `json:"value"`
				TraceID string `json:"trace_id"`
				UnixNs  int64  `json:"unix_ns"`
			} `json:"exemplars"`
		} `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	got := snap.Histograms["query.latency_ns"]
	if got.Count != 102 {
		t.Errorf("histogram count = %d, want 102", got.Count)
	}
	want := map[string]int64{"tracefast01": 900, "traceslow02": 2_000_000}
	if len(got.Exemplars) != len(want) {
		t.Fatalf("exemplars = %+v, want %v", got.Exemplars, want)
	}
	for _, ex := range got.Exemplars {
		if v, ok := want[ex.TraceID]; !ok || v != ex.Value || ex.UnixNs == 0 {
			t.Errorf("exemplar %+v, want one of %v with a timestamp", ex, want)
		}
	}
}

// TestMetricsContentNegotiation pins /metrics to one exposition: Prometheus
// text whatever the Accept header names.
func TestMetricsContentNegotiation(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("query.latency_ns").RecordExemplar(5000, "tracenego03")
	srv, err := reg.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, accept := range []string{"", "application/openmetrics-text; version=1.0.0"} {
		req, _ := http.NewRequest("GET", "http://"+srv.Addr+"/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Errorf("Accept %q: content type %q", accept, ct)
		}
		if strings.Contains(string(body), "# EOF") || strings.Contains(string(body), "trace_id") {
			t.Errorf("Accept %q: OpenMetrics syntax in the exposition:\n%s", accept, body)
		}
		promParse(t, string(body))
	}
}
