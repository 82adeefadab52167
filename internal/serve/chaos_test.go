package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"insitubits/internal/index"
	"insitubits/internal/qlog"
	"insitubits/internal/query"
	"insitubits/internal/store"
)

// The chaos matrix: each test aims a specific failure mode at the server
// and asserts the documented degraded behavior — shed not collapse,
// timeout not hang, consistent not mixed, drained not dropped. CI runs
// the whole file under -race (`make serve-chaos`).

// TestChaosOverloadStorm hits a deliberately tiny server with an open-loop
// storm at several times its capacity. The contract: zero 5xx (every
// answer is a 200 or a shed 429), bounded latency for the admitted, and
// every admitted answer digest-identical to serial execution.
func TestChaosOverloadStorm(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxInflight:    2,
		MaxQueue:       4,
		DefaultTimeout: 2 * time.Second,
		RetryAfter:     5 * time.Millisecond,
	})
	// Slow each admitted request to ~2ms so 2 slots cap the server near
	// 1000 req/s — the 8000 req/s storm is then a true 4×+ overload.
	testHookBeforeExecute = func(*QueryRequest) { time.Sleep(2 * time.Millisecond) }
	defer func() { testHookBeforeExecute = nil }()

	rep := RunLoad(context.Background(), LoadConfig{
		Base:  ts.URL,
		Rate:  8000, // far past what 2 slots + 4 seats admit smoothly
		Total: 400,
		Vars:  []string{"temp", "pres"},
		Ops:   []string{"count", "sum", "mean"},
	})

	if rep.Errors5x != 0 {
		t.Fatalf("storm produced %d 5xx answers — overload must shed, not fail", rep.Errors5x)
	}
	if rep.Network != 0 {
		t.Fatalf("storm produced %d transport errors — server fell over", rep.Network)
	}
	if rep.Errors4x != 0 {
		t.Fatalf("storm produced %d non-429 4xx answers", rep.Errors4x)
	}
	if rep.OK+rep.Shed != rep.Sent {
		t.Fatalf("accounting: ok %d + shed %d != sent %d", rep.OK, rep.Shed, rep.Sent)
	}
	if rep.OK == 0 {
		t.Fatal("storm admitted nothing — server seized instead of degrading")
	}
	if rep.Max > 5*time.Second {
		t.Fatalf("admitted p100 %v — latency unbounded under storm", rep.Max)
	}
	if len(rep.DigestConflicts) != 0 {
		t.Fatalf("same logical query answered differently under storm: %v", rep.DigestConflicts)
	}

	// Every digest the storm produced must equal serial in-process
	// execution of the same logical query.
	serial := serialDigests(t, map[string]*index.Index{
		"temp": buildTestIndex(t, 0), "pres": buildTestIndex(t, 1777),
	}, rep.Digests)
	for key, got := range rep.Digests {
		if want := serial[key]; got != want {
			t.Errorf("key %s: storm digest %s, serial %s", key, got, want)
		}
	}

	// Server-side accounting: every client-visible 429 is a shed, a queue
	// cancel, or a pre-execution deadline (counted as shed there too).
	st := s.Status()
	if st.Shed == 0 {
		t.Fatal("server shed counter is zero despite client-visible 429s")
	}
	t.Logf("storm: sent=%d ok=%d shed=%d p50=%v p99=%v", rep.Sent, rep.OK, rep.Shed, rep.P50, rep.P99)
}

// serialDigests re-executes each logical load-generator query in-process.
func serialDigests(t *testing.T, xs map[string]*index.Index, keys map[string]string) map[string]string {
	t.Helper()
	ctx := context.Background()
	out := make(map[string]string, len(keys))
	for key := range keys {
		req := parseLoadKey(t, key)
		x := xs[req.Var]
		if x == nil {
			t.Fatalf("key %s names unknown var", key)
		}
		sub := query.Subset{ValueLo: req.ValueLo, ValueHi: req.ValueHi,
			SpatialLo: req.SpatialLo, SpatialHi: req.SpatialHi}
		switch req.Op {
		case "count":
			n, err := query.Count(ctx, x, sub)
			if err != nil {
				t.Fatal(err)
			}
			out[key] = qlog.DigestInt(n)
		case "sum":
			a, err := query.Sum(ctx, x, sub)
			if err != nil {
				t.Fatal(err)
			}
			out[key] = query.DigestAggregate(a)
		case "mean":
			a, err := query.Mean(ctx, x, sub)
			if err != nil {
				t.Fatal(err)
			}
			out[key] = query.DigestAggregate(a)
		default:
			t.Fatalf("serialDigests: unhandled op in key %s", key)
		}
	}
	return out
}

// parseLoadKey inverts loadKey for the ops the chaos tests use.
func parseLoadKey(t *testing.T, key string) *QueryRequest {
	t.Helper()
	var req QueryRequest
	var params string
	parts := bytes.Split([]byte(key), []byte("|"))
	if len(parts) != 4 {
		t.Fatalf("bad load key %q", key)
	}
	req.Var, req.Op, req.VarB, params = string(parts[0]), string(parts[1]), string(parts[2]), string(parts[3])
	if _, err := fmt.Sscanf(params, "%g,%g,%d,%d,%g",
		&req.ValueLo, &req.ValueHi, &req.SpatialLo, &req.SpatialHi, &req.Q); err != nil {
		t.Fatalf("bad load key params %q: %v", params, err)
	}
	return &req
}

// TestChaosSlowLoris holds connections half-open against a server with a
// read timeout. The loris connections must be cut by the deadline, and
// well-behaved requests must keep answering throughout.
func TestChaosSlowLoris(t *testing.T) {
	s := New(Config{})
	if err := s.LoadFiles(writeTestIndexes(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ReadTimeout = 200 * time.Millisecond
	ts.Config.WriteTimeout = time.Second
	ts.Start()
	defer ts.Close()

	// Open loris connections: send a partial request line, then stall.
	const lorises = 8
	conns := make([]net.Conn, 0, lorises)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	addr := ts.Listener.Addr().String()
	for i := 0; i < lorises; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write([]byte("POST /v1/query HTTP/1.1\r\nHost: loris\r\nContent-Le")); err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}

	// While the lorises squat, real clients still get answers.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		_, hresp := postQuery(t, ts.URL, &QueryRequest{Op: "count", Var: "temp", ValueLo: 1, ValueHi: 5})
		if hresp.StatusCode != http.StatusOK {
			t.Fatalf("well-behaved request answered %d while lorises squat", hresp.StatusCode)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The read deadline must have severed every loris by now.
	for i, c := range conns {
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := bufio.NewReader(c).ReadByte(); err == nil {
			// A byte back means the server answered a half-request; any
			// response (408) is fine — what matters is the conn is done.
			continue
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("loris %d still connected after read timeout", i)
		}
	}
}

// TestChaosPublishDuringStorm swaps the catalog repeatedly while a storm
// is in flight. Every answer must be internally consistent: the digest a
// response carries must match serial execution against the exact catalog
// generation the response claims — never a blend of old and new indexes.
func TestChaosPublishDuringStorm(t *testing.T) {
	dir := t.TempDir()
	write := func(phase int) map[string]*index.Index {
		xs := map[string]*index.Index{}
		for i, name := range []string{"temp", "pres"} {
			x := buildTestIndex(t, phase+i*1777)
			f, err := os.Create(filepath.Join(dir, name+".isbm"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := store.WriteIndex(f, x); err != nil {
				t.Fatal(err)
			}
			f.Close()
			xs[name] = x
		}
		return xs
	}
	gens := map[uint64]map[string]*index.Index{1: write(0)}
	specs := []string{
		"temp=" + filepath.Join(dir, "temp.isbm"),
		"pres=" + filepath.Join(dir, "pres.isbm"),
	}
	s := New(Config{MaxInflight: 4, MaxQueue: 32, DefaultTimeout: 5 * time.Second})
	if err := s.LoadFiles(specs); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type answer struct {
		key    string
		gen    uint64
		digest string
	}
	var mu sync.Mutex
	var answers []answer
	stop := make(chan struct{})
	var wg sync.WaitGroup
	reqs := []*QueryRequest{
		{Op: "count", Var: "temp", ValueLo: 1, ValueHi: 5},
		{Op: "sum", Var: "pres", ValueLo: 2, ValueHi: 7},
		{Op: "mean", Var: "temp", SpatialLo: 100, SpatialHi: 9000},
	}
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := reqs[(w+i)%len(reqs)]
				resp, hresp := postQuery(t, ts.URL, req)
				switch hresp.StatusCode {
				case http.StatusOK:
					mu.Lock()
					answers = append(answers, answer{loadKey(req), resp.CatalogGen, resp.Digest})
					mu.Unlock()
				case http.StatusTooManyRequests:
				default:
					t.Errorf("storm answer %d", hresp.StatusCode)
					return
				}
			}
		}(w)
	}

	// Publish three new generations mid-storm by rewriting the files with
	// different data and reloading.
	for phase := 1; phase <= 3; phase++ {
		time.Sleep(10 * time.Millisecond)
		xs := write(phase * 7919)
		swapped, err := s.Reload()
		if err != nil {
			t.Fatal(err)
		}
		if !swapped {
			t.Fatal("reload did not swap after files changed")
		}
		gens[s.cat.Load().gen] = xs
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()

	if s.Status().Reloads != 3 {
		t.Fatalf("reloads %d, want 3", s.Status().Reloads)
	}
	// Verify every answer against serial execution on the generation it
	// claims. A mixed-generation answer (operands from different swaps, or
	// a digest from one generation stamped with another) fails here.
	cache := map[string]string{}
	seen := map[uint64]int{}
	for _, a := range answers {
		xs := gens[a.gen]
		if xs == nil {
			t.Fatalf("answer claims unknown catalog generation %d", a.gen)
		}
		seen[a.gen]++
		ck := fmt.Sprintf("%d/%s", a.gen, a.key)
		want, ok := cache[ck]
		if !ok {
			want = serialDigests(t, xs, map[string]string{a.key: ""})[a.key]
			cache[ck] = want
		}
		if a.digest != want {
			t.Fatalf("gen %d key %s: served digest %s, serial %s — mixed-generation answer", a.gen, a.key, a.digest, want)
		}
	}
	if len(answers) == 0 {
		t.Fatal("storm produced no successful answers")
	}
	t.Logf("publish-during-storm: %d answers across generations %v", len(answers), seen)
}

// TestChaosDrainUnderLoad starts a storm, then drains mid-flight. Every
// admitted request must complete (drain waits), new arrivals must get
// 503, and Drain must return cleanly before its deadline.
func TestChaosDrainUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxInflight:    4,
		MaxQueue:       16,
		DefaultTimeout: 5 * time.Second,
		DrainTimeout:   10 * time.Second,
	})
	var ok, shed, refused, other counter64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, hresp := postQuery(t, ts.URL, &QueryRequest{Op: "sum", Var: "temp", ValueLo: 1, ValueHi: 5})
				switch hresp.StatusCode {
				case http.StatusOK:
					ok.add(1)
				case http.StatusTooManyRequests:
					shed.add(1)
				case http.StatusServiceUnavailable:
					refused.add(1)
				default:
					other.add(1)
				}
			}
		}()
	}
	time.Sleep(30 * time.Millisecond)

	drainStart := time.Now()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	drainTook := time.Since(drainStart)
	// Drain returned: nothing is in flight anymore, by definition.
	if got := s.adm.inflight(); got != 0 {
		t.Fatalf("drain returned with %d requests still holding slots", got)
	}
	// The storm is still arriving: let one of its requests meet the gate
	// before stopping it (Drain can return before any worker's next request).
	for deadline := time.Now().Add(5 * time.Second); refused.load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if other.load() != 0 {
		t.Fatalf("%d unexpected status codes under drain", other.load())
	}
	if ok.load() == 0 {
		t.Fatal("no requests succeeded before drain")
	}
	if refused.load() == 0 {
		t.Fatal("no requests were refused after drain — drain gate not visible")
	}
	// And the server stays drained: a late query is refused.
	if _, hresp := postQuery(t, ts.URL, &QueryRequest{Op: "count", Var: "temp"}); hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain query answered %d, want 503", hresp.StatusCode)
	}
	t.Logf("drain under load: ok=%d shed=%d refused=%d drain=%v", ok.load(), shed.load(), refused.load(), drainTook)
}

// TestChaosPanicIsolation injects a panic into one request's execution
// path: that request answers 500, the counter moves, and the very same
// server keeps answering everything else.
func TestChaosPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	testHookBeforeExecute = func(req *QueryRequest) {
		if req.Op == "quantile" && req.Q == -12345 {
			panic("chaos: injected request panic")
		}
	}
	defer func() { testHookBeforeExecute = nil }()

	body, _ := json.Marshal(&QueryRequest{Op: "quantile", Var: "temp", Q: -12345})
	hresp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request answered %d, want 500", hresp.StatusCode)
	}
	if got := s.Status().Panics; got != 1 {
		t.Fatalf("panic counter %d, want 1", got)
	}
	// The server survives and the slot was released.
	for i := 0; i < 20; i++ {
		resp, hresp := postQuery(t, ts.URL, &QueryRequest{Op: "count", Var: "temp", ValueLo: 1, ValueHi: 5})
		if hresp.StatusCode != http.StatusOK || resp.Digest == "" {
			t.Fatalf("request %d after panic: status %d", i, hresp.StatusCode)
		}
	}
	if got := s.adm.inflight(); got != 0 {
		t.Fatalf("panic leaked %d execution slots", got)
	}
}

// counter64 is a tiny counter for test goroutines.
type counter64 struct{ v atomic.Int64 }

func (c *counter64) add(n int64) { c.v.Add(n) }
func (c *counter64) load() int64 { return c.v.Load() }
