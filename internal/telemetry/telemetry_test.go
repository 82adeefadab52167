package telemetry

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
			r.Counter("c").Add(per) // same instance via the registry
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 2*workers*per {
		t.Fatalf("count = %d, want %d", got, 2*workers*per)
	}
	if r.Counter("c") != c {
		t.Fatal("registry returned a different instance for the same name")
	}
}

func TestGaugeWatermark(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(1)
				g.Add(-1)
			}
			g.Set(int64(w))
		}(w)
	}
	wg.Wait()
	if g.Max() < int64(workers-1) {
		t.Fatalf("watermark %d never saw Set(%d)", g.Max(), workers-1)
	}
	if v := g.Value(); v < 0 || v >= workers {
		t.Fatalf("final value %d outside [0,%d)", v, workers)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := r.Gauge("x")
	g.Set(3)
	if g.Add(2) != 0 || g.Max() != 0 {
		t.Fatal("nil gauge not a no-op")
	}
	h := r.Histogram("x")
	h.Record(42)
	if s := h.Snapshot(); s.Count != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram not a no-op")
	}
	if snap := r.Snapshot(); len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	// Every value must land in a bucket whose bounds contain it, and
	// bucket widths must bound the relative error by 1/16.
	for _, v := range []int64{0, 1, 15, 16, 17, 31, 32, 1000, 123456789, 1 << 40, 1<<62 + 12345} {
		idx := bucketOf(v)
		lo, hi := bucketBounds(idx)
		if v < lo || v > hi {
			t.Fatalf("value %d in bucket %d with bounds [%d,%d]", v, idx, lo, hi)
		}
		if lo >= exactLimit {
			if width := hi - lo + 1; width > lo/subBuckets+1 {
				t.Fatalf("bucket %d width %d too wide for lower edge %d", idx, width, lo)
			}
		}
	}
	if idx := bucketOf(-5); idx != 0 {
		t.Fatalf("negative value in bucket %d", idx)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	const n = 200000
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		h.Record(int64(rng.Intn(1_000_000)) + 1)
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("count %d", s.Count)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := float64(s.Quantile(q))
		want := q * 1_000_000 // uniform distribution
		if rel := (got - want) / want; rel < -0.08 || rel > 0.08 {
			t.Errorf("q%.2f = %.0f, want %.0f ± 6.25%% bucket width (rel %.3f)", q, got, want, rel)
		}
	}
	if s.Min < 1 || s.Max > 1_000_000 {
		t.Fatalf("min/max %d/%d outside recorded range", s.Min, s.Max)
	}
	if s.Mean < 450_000 || s.Mean > 550_000 {
		t.Fatalf("mean %.0f implausible for uniform [1,1e6]", s.Mean)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	const workers, per = 8, 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				h.Record(int64(rng.Intn(1 << 20)))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count %d, want %d", s.Count, workers*per)
	}
	total := int64(0)
	for _, c := range s.buckets {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(7)
	r.Gauge("g").Set(3)
	r.Histogram("h").Record(100)
	data, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["a"] != 7 || snap.Gauges["g"].Value != 3 ||
		snap.Histograms["h"].Count != 1 {
		t.Fatalf("round-tripped snapshot %+v", snap)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["spans"]; ok {
		t.Fatalf("snapshot has a spans key: %s", data)
	}
}

func TestDebugServer(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	dbg, err := r.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + dbg.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	code, body := get("/telemetry")
	if code != 200 {
		t.Fatalf("/telemetry -> %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil || snap.Counters["hits"] != 3 {
		t.Fatalf("/telemetry body %q (err %v)", body, err)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ -> %d", code)
	}
	for _, gone := range []string{"/debug/vars", "/nope"} {
		if code, _ := get(gone); code != 404 {
			t.Fatalf("%s -> %d", gone, code)
		}
	}
}
