package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"insitubits/internal/binning"
	"insitubits/internal/bitvec"
	"insitubits/internal/index"
	"insitubits/internal/insitu"
	"insitubits/internal/qlog"
	"insitubits/internal/query"
	"insitubits/internal/replay"
	"insitubits/internal/store"
)

// serveTestData mixes fills and literals like the other packages' fixtures.
func serveTestData(n, phase int) []float64 {
	data := make([]float64, n)
	for i := range data {
		switch {
		case i%97 == 0:
			data[i] = float64((i + phase) % 8)
		case (i/128)%3 == 0:
			data[i] = float64(((i + phase) / 128) % 8)
		default:
			data[i] = 4 + 3.9*math.Sin(float64(i+phase)/200)
		}
	}
	return data
}

func buildTestIndex(t testing.TB, phase int) *index.Index {
	t.Helper()
	m, err := binning.NewUniform(0, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return index.Build(serveTestData(31*400, phase), m)
}

// writeTestIndexes writes temp and pres .isbm files and returns their specs.
func writeTestIndexes(t testing.TB) []string {
	t.Helper()
	dir := t.TempDir()
	specs := make([]string, 0, 2)
	for i, name := range []string{"temp", "pres"} {
		x := buildTestIndex(t, i*1777)
		path := filepath.Join(dir, name+".isbm")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.WriteIndex(f, x); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, name+"="+path)
	}
	return specs
}

// newTestServer loads the two-variable fixture and wraps the handler in an
// httptest server.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if err := s.LoadFiles(writeTestIndexes(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postQuery(t testing.TB, base string, req *QueryRequest) (*QueryResponse, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	hresp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var resp QueryResponse
	if hresp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
	}
	return &resp, hresp
}

// TestHandlerOps answers every op and digests identically to direct
// in-process execution — the serving path adds transport, not semantics.
func TestHandlerOps(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	x := buildTestIndex(t, 0)
	xb := buildTestIndex(t, 1777)
	ctx := context.Background()
	sub := query.Subset{ValueLo: 1, ValueHi: 5}

	n, err := query.Count(ctx, x, sub)
	if err != nil {
		t.Fatal(err)
	}
	resp, hresp := postQuery(t, ts.URL, &QueryRequest{Op: "count", Var: "temp", ValueLo: 1, ValueHi: 5})
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("count status %d", hresp.StatusCode)
	}
	if resp.Count != n || resp.Digest != qlog.DigestInt(n) {
		t.Fatalf("served count %d digest %s, direct %d digest %s", resp.Count, resp.Digest, n, qlog.DigestInt(n))
	}
	if resp.CatalogGen != 1 || resp.Generation == 0 {
		t.Fatalf("missing generation stamps: %+v", resp)
	}

	a, err := query.Sum(ctx, x, sub)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = postQuery(t, ts.URL, &QueryRequest{Op: "sum", Var: "temp", ValueLo: 1, ValueHi: 5})
	if resp.Digest != query.DigestAggregate(a) {
		t.Fatalf("sum digest %s, want %s", resp.Digest, query.DigestAggregate(a))
	}

	resp, hresp = postQuery(t, ts.URL, &QueryRequest{Op: "quantile", Var: "temp", ValueLo: 1, ValueHi: 5, Q: 0.5})
	if hresp.StatusCode != http.StatusOK || resp.Aggregate == nil {
		t.Fatalf("quantile: status %d resp %+v", hresp.StatusCode, resp)
	}

	mn, mx, err := query.MinMax(ctx, x, sub)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = postQuery(t, ts.URL, &QueryRequest{Op: "minmax", Var: "temp", ValueLo: 1, ValueHi: 5})
	if resp.Digest != query.DigestMinMax(mn, mx) {
		t.Fatalf("minmax digest mismatch")
	}

	pr, err := query.Correlation(ctx, x, xb, sub, sub)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = postQuery(t, ts.URL, &QueryRequest{
		Op: "correlation", Var: "temp", ValueLo: 1, ValueHi: 5,
		VarB: "pres", BValueLo: 1, BValueHi: 5,
	})
	if resp.Digest != query.DigestPair(pr) {
		t.Fatalf("correlation digest %s, want %s", resp.Digest, query.DigestPair(pr))
	}
	if resp.GenerationB == 0 {
		t.Fatalf("correlation response missing generation_b")
	}

	resp, hresp = postQuery(t, ts.URL, &QueryRequest{Op: "bits", Var: "temp", ValueLo: 1, ValueHi: 5})
	if hresp.StatusCode != http.StatusOK || resp.Count != n {
		t.Fatalf("bits: status %d count %d want %d", hresp.StatusCode, resp.Count, n)
	}

	resp, hresp = postQuery(t, ts.URL, &QueryRequest{Op: "explain", Var: "temp", ExplainOp: "sum", ValueLo: 1, ValueHi: 5})
	if hresp.StatusCode != http.StatusOK || resp.Explain == "" || resp.Digest == "" {
		t.Fatalf("explain: status %d resp %+v", hresp.StatusCode, resp)
	}
}

// walkCounter is a bitmap that counts how often its contents are walked.
type walkCounter struct {
	bitvec.Bitmap
	runs, counts int
}

func (w *walkCounter) Runs() bitvec.RunReader { w.runs++; return w.Bitmap.Runs() }
func (w *walkCounter) Count() int             { w.counts++; return w.Bitmap.Count() }

// TestBitsAnswerWalksOnce: a served bits answer is its cardinality and its
// digest, and both come from one walk of the bitmap — the digest's.
func TestBitsAnswerWalksOnce(t *testing.T) {
	x := buildTestIndex(t, 0)
	v, err := query.Bits(context.Background(), x, query.Subset{ValueLo: 1, ValueHi: 5, SpatialLo: 100, SpatialHi: 9000})
	if err != nil {
		t.Fatal(err)
	}
	w := &walkCounter{Bitmap: v}
	var resp QueryResponse
	resp.SetAnswer(&query.Answer{Op: query.OpBits, Bits: w})
	digest, count := qlog.DigestBitmap(v)
	if resp.Count != count || resp.Count != v.Count() || resp.Digest != digest {
		t.Fatalf("bits answer count %d digest %s, the digest walk counts %d (Count %d) digest %s",
			resp.Count, resp.Digest, count, v.Count(), digest)
	}
	if w.runs != 1 || w.counts != 0 {
		t.Fatalf("bits answer opened Runs() %d times and Count() %d times, want 1 and 0", w.runs, w.counts)
	}
}

// badRequests are requests the two-variable test catalog refuses, with the
// status each gets; FuzzServeRequest mutates them.
var badRequests = []struct {
	name string
	req  *QueryRequest
	code int
}{
	{"unknown op", &QueryRequest{Op: "drop-tables", Var: "temp"}, http.StatusBadRequest},
	{"unknown var", &QueryRequest{Op: "count", Var: "nope"}, http.StatusBadRequest},
	{"ambiguous var", &QueryRequest{Op: "count"}, http.StatusBadRequest},
	{"correlation missing b", &QueryRequest{Op: "correlation", Var: "temp"}, http.StatusBadRequest},
	{"inverted spatial range", &QueryRequest{Op: "count", Var: "temp", SpatialLo: 9000, SpatialHi: 100}, http.StatusBadRequest},
	{"empty spatial range", &QueryRequest{Op: "bits", Var: "temp", SpatialLo: 5, SpatialHi: 5}, http.StatusBadRequest},
	{"inverted correlation range", &QueryRequest{Op: "correlation", Var: "temp", VarB: "temp", SpatialLo: 9000, SpatialHi: 100, BSpatialLo: 9000, BSpatialHi: 100}, http.StatusBadRequest},
	{"inverted explain range", &QueryRequest{Op: "explain", Var: "temp", SpatialLo: 9000, SpatialHi: 100}, http.StatusBadRequest},
	{"inverted value range", &QueryRequest{Op: "count", Var: "temp", ValueLo: 60, ValueHi: 20}, http.StatusBadRequest},
	{"value range without hi", &QueryRequest{Op: "sum", Var: "temp", ValueLo: 50}, http.StatusBadRequest},
	{"inverted correlation value range", &QueryRequest{Op: "correlation", Var: "temp", VarB: "temp", BValueLo: 60, BValueHi: 20}, http.StatusBadRequest},
}

func TestHandlerErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range badRequests {
		_, hresp := postQuery(t, ts.URL, tc.req)
		if hresp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, hresp.StatusCode, tc.code)
		}
	}
	hresp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d", hresp.StatusCode)
	}
	hresp, err = http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET query: status %d", hresp.StatusCode)
	}
}

// TestInflightGroupAdmitDuringDrain is what a sync.WaitGroup may not do:
// arrivals keep entering and leaving — from a count of zero too — while a
// drain waits. The waiter must be released by the first return to zero
// after the long request ends, never before. Run with -race.
func TestInflightGroupAdmitDuringDrain(t *testing.T) {
	var g inflightGroup
	select {
	case <-g.idle():
	default:
		t.Fatal("an empty group is not idle")
	}
	g.enter() // the long request a drain waits for
	idle := g.idle()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ { // arrivals a draining server refuses
				g.enter()
				g.leave()
			}
		}()
	}
	select {
	case <-idle:
		t.Fatal("idle while a request was still in flight")
	default:
	}
	g.leave()
	wg.Wait()
	select {
	case <-idle:
	case <-time.After(5 * time.Second):
		t.Fatal("the waiter was never released")
	}
	select {
	case <-g.idle():
	default:
		t.Fatal("a drained group is not idle")
	}
}

// TestAdmissionBounds hammers acquire/release from many goroutines and
// checks the invariants the race detector alone can't: waiters never
// exceed the queue bound, slots never exceed max-inflight, and every
// arrival is accounted exactly once.
func TestAdmissionBounds(t *testing.T) {
	const maxInflight, maxQueue, workers, perWorker = 4, 8, 32, 200
	a := newAdmission(maxInflight, maxQueue)
	var wg sync.WaitGroup
	var peakQueue, peakSlots atomic.Int64
	var total atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				total.Add(1)
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
				release, err := a.acquire(ctx)
				if q := int64(a.waiting()); q > peakQueue.Load() {
					peakQueue.Store(q)
				}
				if s := int64(a.inflight()); s > peakSlots.Load() {
					peakSlots.Store(s)
				}
				if err == nil {
					if w%2 == 0 {
						time.Sleep(20 * time.Microsecond)
					}
					release()
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()
	if a.inflight() != 0 || a.waiting() != 0 {
		t.Fatalf("leaked: inflight=%d waiting=%d", a.inflight(), a.waiting())
	}
	if peakQueue.Load() > maxQueue {
		t.Fatalf("queue bound violated: peak %d > %d", peakQueue.Load(), maxQueue)
	}
	if peakSlots.Load() > maxInflight {
		t.Fatalf("inflight bound violated: peak %d > %d", peakSlots.Load(), maxInflight)
	}
	got := a.admitted.Load() + a.shed.Load() + a.cancelled.Load()
	if got != total.Load() {
		t.Fatalf("accounting: admitted+shed+cancelled = %d, arrivals %d", got, total.Load())
	}
}

// TestCatalogSwapRace reloads concurrently with queries; every response
// must be internally consistent (one generation, a digest) and the final
// catalog generation must reflect the swaps. Run under -race in CI.
func TestCatalogSwapRace(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 8, MaxQueue: 64, DefaultTimeout: 5 * time.Second})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, hresp := postQuery(t, ts.URL, &QueryRequest{Op: "count", Var: "temp", ValueLo: 1, ValueHi: 5})
				if hresp.StatusCode == http.StatusOK && (resp.Digest == "" || resp.CatalogGen == 0) {
					t.Errorf("inconsistent response: %+v", resp)
					return
				}
			}
		}()
	}
	swaps := 0
	for i := 0; i < 20; i++ {
		if swapped, err := s.Reload(); err != nil {
			t.Errorf("reload: %v", err)
		} else if swapped {
			swaps++
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	// Same files on disk: fingerprint unchanged, so reload must no-op.
	if swaps != 0 {
		t.Fatalf("reload swapped %d times on unchanged files", swaps)
	}
	if got := s.cat.Load().gen; got != 1 {
		t.Fatalf("catalog generation %d, want 1", got)
	}
}

// TestShedThenRetrySucceeds pins the server at capacity, verifies an
// arrival is shed with 429 + Retry-After, then frees capacity and checks
// the client's backoff turns the shed into an eventual success.
func TestShedThenRetrySucceeds(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 1, DefaultTimeout: time.Second})
	// Occupy the only slot and the only queue seat directly.
	release, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	seatCtx, seatCancel := context.WithCancel(context.Background())
	seatDone := make(chan struct{})
	go func() {
		defer close(seatDone)
		if r, err := s.adm.acquire(seatCtx); err == nil {
			r()
		}
	}()
	for s.adm.waiting() == 0 {
		time.Sleep(time.Millisecond)
	}

	// Saturated: a bare request sheds with the retry hint.
	_, hresp := postQuery(t, ts.URL, &QueryRequest{Op: "count", Var: "temp"})
	if hresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", hresp.StatusCode)
	}
	if hresp.Header.Get("Retry-After") == "" || hresp.Header.Get("X-Retry-After-Ms") == "" {
		t.Fatalf("429 missing Retry-After headers: %v", hresp.Header)
	}

	// Free capacity shortly; the retrying client must land a 200.
	go func() {
		time.Sleep(30 * time.Millisecond)
		seatCancel()
		<-seatDone
		release()
	}()
	var retries int
	cl := &Client{Base: ts.URL, Backoff: backoffForTest(&retries)}
	resp, err := cl.Query(context.Background(), &QueryRequest{Op: "count", Var: "temp", ValueLo: 1, ValueHi: 5})
	if err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if resp.Digest == "" {
		t.Fatalf("no digest in retried response")
	}
	if retries == 0 {
		t.Fatalf("client never retried — shed path not exercised")
	}
	if s.Status().Shed == 0 {
		t.Fatalf("server shed counter is zero")
	}
}

func backoffForTest(retries *int) (b iosimBackoff) {
	b.Tries = 20
	b.Base = 5 * time.Millisecond
	b.Max = 50 * time.Millisecond
	b.OnRetry = func(int, error) { *retries++ }
	return b
}

// TestReadiness walks the lifecycle: loading → 503, loaded → 200, drain →
// 503 while /healthz stays 200 throughout.
func TestReadiness(t *testing.T) {
	s := New(Config{DrainTimeout: time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		return r.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz while loading: %d", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz while loading: %d, want 503", got)
	}
	if _, hresp := postQuery(t, ts.URL, &QueryRequest{Op: "count"}); hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query while loading: %d, want 503", hresp.StatusCode)
	}

	if err := s.LoadFiles(writeTestIndexes(t)); err != nil {
		t.Fatal(err)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz when ready: %d", got)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz while draining: %d", got)
	}
	if _, hresp := postQuery(t, ts.URL, &QueryRequest{Op: "count", Var: "temp"}); hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: %d, want 503", hresp.StatusCode)
	}
}

// TestDeadlineClamp sends absurd timeout overrides and checks the server
// clamps them rather than holding a request slot for minutes — including
// ones whose product with a millisecond overflows a Duration (to 0, and to
// a negative span), which must not become an already-expired deadline.
func TestDeadlineClamp(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTimeout: 50 * time.Millisecond})
	for _, ms := range []int64{3_600_000, 1 << 62, 9_300_000_000_000} {
		resp, hresp := postQuery(t, ts.URL, &QueryRequest{Op: "count", Var: "temp", TimeoutMs: ms})
		if hresp.StatusCode != http.StatusOK {
			t.Fatalf("timeout_ms %d: status %d", ms, hresp.StatusCode)
		}
		if resp.Digest == "" {
			t.Fatalf("timeout_ms %d: no digest", ms)
		}
	}
}

// TestDeadlineDuringExecution: a deadline that lapses after the
// pre-execution check — here while the hook stalls the admitted request —
// stops the executor at its next operator. Nothing was answered, so the
// request is retryable: 429 with Retry-After, never a 5xx, and the slot is
// free again.
func TestDeadlineDuringExecution(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	testHookBeforeExecute = func(req *QueryRequest) {
		if req.TimeoutMs == 5 {
			time.Sleep(40 * time.Millisecond)
		}
	}
	defer func() { testHookBeforeExecute = nil }()
	for _, req := range []*QueryRequest{
		{Op: "correlation", Var: "temp", VarB: "pres", ValueLo: 1, ValueHi: 7, BValueLo: 1, BValueHi: 7, TimeoutMs: 5},
		{Op: "sum", Var: "temp", SpatialLo: 31, SpatialHi: 9000, TimeoutMs: 5},
	} {
		_, hresp := postQuery(t, ts.URL, req)
		if hresp.StatusCode != http.StatusTooManyRequests || hresp.Header.Get("Retry-After") == "" {
			t.Errorf("%s past its deadline: status %d Retry-After %q, want 429 with a hint",
				req.Op, hresp.StatusCode, hresp.Header.Get("Retry-After"))
		}
	}
	if got := s.adm.inflight(); got != 0 {
		t.Fatalf("cancelled requests hold %d execution slots", got)
	}
	if _, hresp := postQuery(t, ts.URL, &QueryRequest{Op: "sum", Var: "temp", SpatialLo: 31, SpatialHi: 9000}); hresp.StatusCode != http.StatusOK {
		t.Fatalf("request within its deadline: status %d", hresp.StatusCode)
	}
}

// TestTracePropagation: a W3C traceparent (and X-Trace-Id) joins the
// response — and the server's telemetry — to the caller's trace ID.
func TestTracePropagation(t *testing.T) {
	rec := newTestTraceRecorder(t)
	_ = rec
	_, ts := newTestServer(t, Config{})
	const remote = "4bf92f3577b34da6a3ce929d0e0e4736"

	body, _ := json.Marshal(&QueryRequest{Op: "count", Var: "temp", ValueLo: 1, ValueHi: 5})
	hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	hreq.Header.Set("traceparent", "00-"+remote+"-00f067aa0ba902b7-01")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var resp QueryResponse
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != remote {
		t.Fatalf("response trace ID %q, want adopted %q", resp.TraceID, remote)
	}

	// A malformed ID must not be adopted.
	hreq, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	hreq.Header.Set("X-Trace-Id", "ZZZZ")
	hresp2, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp2.Body.Close()
	var resp2 QueryResponse
	if err := json.NewDecoder(hresp2.Body).Decode(&resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.TraceID == "ZZZZ" || resp2.TraceID == "" {
		t.Fatalf("malformed trace ID handling: got %q", resp2.TraceID)
	}
}

// TestReplayServerCapturedLog is satellite 2's gate: a workload log
// captured on the serving path carries source=serve and the remote trace
// ID, and `replay` re-executes it digest-identically — the server adds
// transport, not semantics.
func TestReplayServerCapturedLog(t *testing.T) {
	rec := newTestTraceRecorder(t)
	_ = rec
	dir := t.TempDir()
	w, err := qlog.Create(filepath.Join(dir, "serve.isql"))
	if err != nil {
		t.Fatal(err)
	}
	w.SetSource("serve")
	qlog.Install(w)
	defer qlog.Install(nil)

	_, ts := newTestServer(t, Config{})
	const remote = "00f067aa0ba902b74bf92f3577b34da6"
	subs := []query.Subset{
		{ValueLo: 1, ValueHi: 5},
		{ValueLo: 2, ValueHi: 7, SpatialLo: 100, SpatialHi: 6000},
		{SpatialLo: 31, SpatialHi: 9000},
	}
	for _, sub := range subs {
		for _, op := range []string{"count", "sum", "mean", "minmax", "bits"} {
			body, _ := json.Marshal(&QueryRequest{Op: op, Var: "temp",
				ValueLo: sub.ValueLo, ValueHi: sub.ValueHi,
				SpatialLo: sub.SpatialLo, SpatialHi: sub.SpatialHi})
			hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
			hreq.Header.Set("X-Trace-Id", remote)
			hresp, err := http.DefaultClient.Do(hreq)
			if err != nil {
				t.Fatal(err)
			}
			hresp.Body.Close()
			if hresp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", op, hresp.StatusCode)
			}
		}
	}
	qlog.Install(nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, _, err := qlog.ReadLog(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records captured on the serving path")
	}
	for i, r := range recs {
		if r.Source != "serve" {
			t.Fatalf("record %d source %q, want serve", i, r.Source)
		}
		if r.TraceID != remote {
			t.Fatalf("record %d trace ID %q, want propagated %q", i, r.TraceID, remote)
		}
	}

	// Replay against a fresh build of the same data: digests must match.
	x := buildTestIndex(t, 0)
	report := replay.Run(context.Background(), recs, x, nil, replay.Options{})
	if err := report.Err(); err != nil {
		for _, mm := range report.Mismatches() {
			t.Logf("mismatch seq=%d op=%s recorded=%s replayed=%s", mm.Seq, mm.Op, mm.Recorded, mm.Replayed)
		}
		t.Fatalf("server-captured log does not replay: %v", err)
	}
	if report.Replayed == 0 {
		t.Fatal("replay executed nothing")
	}
}

// TestLoadDirJournal serves the newest committed step of a run directory,
// read through the run's journal — the in-situ coupling.
func TestLoadDirJournal(t *testing.T) {
	dir := runInsituFixture(t, 6)
	s := New(Config{})
	if err := s.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if st.State != "ready" || st.Step < 0 || len(st.Vars) == 0 {
		t.Fatalf("bad status after LoadDir: %+v", st)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, hresp := postQuery(t, ts.URL, &QueryRequest{Op: "count", Var: st.Vars[0], ValueLo: 1, ValueHi: 5})
	if hresp.StatusCode != http.StatusOK || resp.Digest == "" {
		t.Fatalf("query against journal-loaded catalog: status %d resp %+v", hresp.StatusCode, resp)
	}
}

// TestLoadDirNeedsJournal: the journal is the only record of what a run
// committed, so a directory holding a manifest but no journal serves
// nothing.
func TestLoadDirNeedsJournal(t *testing.T) {
	dir := runInsituFixture(t, 3)
	if err := os.Remove(filepath.Join(dir, insitu.JournalName)); err != nil {
		t.Fatal(err)
	}
	if err := New(Config{}).LoadDir(dir); err == nil {
		t.Fatal("loaded a directory without a journal")
	}
}

// TestLoadDirRejectsEscapingPath appends a select record for a later step
// whose file lies outside the run directory — a valid index file. The
// journal reader ends the valid prefix at that record, so the server keeps
// serving the newest step the run itself committed.
func TestLoadDirRejectsEscapingPath(t *testing.T) {
	dir := runInsituFixture(t, 3)
	s := New(Config{})
	if err := s.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	want := s.Status().Step
	data, err := os.ReadFile(s.cat.Load().entries[s.Status().Vars[0]].Path)
	if err != nil {
		t.Fatal(err)
	}
	outside := filepath.Join(filepath.Dir(dir), "outside.isbm")
	if err := os.WriteFile(outside, data, 0o644); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(&insitu.JournalRecord{Kind: insitu.KindSelect, Step: want + 1,
		Files: []insitu.JournalFile{{Var: "temperature", Path: "../outside.isbm", Bytes: int64(len(data)), CRC: store.CRC32C(data)}}})
	if err != nil {
		t.Fatal(err)
	}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(append(frame, payload...), store.CRC32C(payload))
	f, err := os.OpenFile(filepath.Join(dir, insitu.JournalName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.Step != want {
		t.Fatalf("serving step %d after an escaping select record, want %d", st.Step, want)
	}
}

// TestLoadDirRejectsDamagedArtifact puts an older step's index, a valid
// container of another length, in place of the newest step's: the load
// fails against the journal's record, and the error names the file.
func TestLoadDirRejectsDamagedArtifact(t *testing.T) {
	dir := runInsituFixture(t, 3)
	s := New(Config{})
	if err := s.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	newest := s.cat.Load().entries[s.Status().Vars[0]]
	older, err := filepath.Glob(filepath.Join(dir, "*.isbm"))
	if err != nil {
		t.Fatal(err)
	}
	var data []byte
	for _, path := range older {
		if b, err := os.ReadFile(path); err == nil && int64(len(b)) != newest.Bytes {
			data = b
			break
		}
	}
	if data == nil {
		t.Fatal("no committed index of another length to swap in")
	}
	if err := os.WriteFile(newest.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = New(Config{}).LoadDir(dir)
	if err == nil {
		t.Fatal("loaded an artifact whose length disagrees with the journal")
	}
	if !strings.Contains(err.Error(), filepath.Base(newest.Path)) {
		t.Fatalf("error %q does not name %s", err, filepath.Base(newest.Path))
	}
}

func TestVarsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	r, err := http.Get(ts.URL + "/v1/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var out struct {
		CatalogGen uint64   `json:"catalog_generation"`
		Vars       []*Entry `json:"vars"`
	}
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Vars) != 2 || out.Vars[0].Name != "pres" || out.Vars[1].Name != "temp" {
		t.Fatalf("vars: %+v", out.Vars)
	}
	for _, e := range out.Vars {
		if e.N == 0 || e.Bins == 0 || e.Gen == 0 {
			t.Fatalf("entry missing metadata: %+v", e)
		}
	}
}

func fmtSpecs(dir string, names []string) []string {
	specs := make([]string, len(names))
	for i, n := range names {
		specs[i] = fmt.Sprintf("%s=%s", n, filepath.Join(dir, n+".isbm"))
	}
	return specs
}
