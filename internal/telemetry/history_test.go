package telemetry

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// TestHistoryRingAndRates drives Sample directly (no timer) and checks
// ring wraparound, oldest-first ordering, and derived counter rates.
func TestHistoryRingAndRates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test.ops")
	g := reg.Gauge("test.depth")
	h := NewHistory(reg, time.Second, 4)
	for i := 0; i < 6; i++ {
		c.Add(10)
		g.Set(int64(i))
		h.Sample()
	}
	d := h.Dump()
	if d.Capacity != 4 || len(d.Samples) != 4 {
		t.Fatalf("capacity=%d samples=%d, want 4/4", d.Capacity, len(d.Samples))
	}
	// The ring kept the last 4 of 6 samples: counters 30,40,50,60.
	for i, s := range d.Samples {
		if want := int64(30 + 10*i); s.Counters["test.ops"] != want {
			t.Errorf("sample %d counter = %d, want %d", i, s.Counters["test.ops"], want)
		}
		if want := int64(2 + i); s.Gauges["test.depth"] != want {
			t.Errorf("sample %d gauge = %d, want %d", i, s.Gauges["test.depth"], want)
		}
		if i > 0 && s.UnixNs < d.Samples[i-1].UnixNs {
			t.Errorf("samples out of order at %d", i)
		}
	}
	series, ok := d.Rates["test.ops"]
	if !ok || len(series) != 3 {
		t.Fatalf("rates = %v", d.Rates)
	}
	for i, r := range series {
		if r <= 0 {
			t.Errorf("rate %d = %g, want > 0 (counter grows every sample)", i, r)
		}
	}
	// A counter reset (100 → 5) must read as post-reset growth (+5 over
	// 1s → 5/s), never a negative rate.
	reset := deriveRates([]HistorySample{
		{UnixNs: 1e9, Counters: map[string]int64{"x": 100}},
		{UnixNs: 2e9, Counters: map[string]int64{"x": 5}},
		{UnixNs: 3e9, Counters: map[string]int64{"x": 5}},
	})
	if reset["x"][0] != 5 {
		t.Errorf("reset rate = %g, want 5 (growth since reset)", reset["x"][0])
	}
	if reset["x"][1] != 0 {
		t.Errorf("steady post-reset rate = %g, want 0", reset["x"][1])
	}
	var nilH *History
	if dump := nilH.Dump(); dump.Capacity != 0 {
		t.Error("nil history dump not empty")
	}
	nilH.Stop()
}

// TestHistoryEndpoint covers StartHistory end to end: the provider is
// published, served at /debug/metrics/history, and embedded sparkline
// inputs (interval, samples, rates) unmarshal from the wire shape.
func TestHistoryEndpoint(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("qlog.records")
	srv, err := reg.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Before StartHistory the endpoint 404s.
	resp, err := http.Get("http://" + srv.Addr + "/debug/metrics/history")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-start status = %d, want 404", resp.StatusCode)
	}

	h := StartHistory(reg, time.Hour, 8) // timer never fires in-test
	defer h.Stop()
	c.Add(3)
	h.Sample()
	c.Add(3)
	h.Sample()

	resp, err = http.Get("http://" + srv.Addr + "/debug/metrics/history")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var d HistoryDump
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	// run() records an initial sample before the ticker, so expect >= 2.
	if len(d.Samples) < 2 {
		t.Fatalf("samples = %d, want >= 2", len(d.Samples))
	}
	if d.IntervalNs != time.Hour.Nanoseconds() {
		t.Errorf("interval = %d", d.IntervalNs)
	}
	if _, ok := d.Rates["qlog.records"]; !ok {
		t.Errorf("rates missing qlog.records: %v", d.Rates)
	}
	last := d.Samples[len(d.Samples)-1]
	if last.Counters["qlog.records"] != 6 {
		t.Errorf("last sample counter = %d, want 6", last.Counters["qlog.records"])
	}
}
