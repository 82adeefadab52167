package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// LoadConfig shapes one open-loop load run: requests are launched on the
// clock (Rate per second for Duration, or exactly Total), not gated on
// responses, so a slow server accumulates concurrency the way real
// traffic does — exactly the regime admission control exists for.
type LoadConfig struct {
	Base     string        // server address
	Rate     float64       // requests/second, default 100
	Duration time.Duration // wall-clock budget, default 1s (ignored if Total > 0)
	Total    int           // exact request count; 0 means Rate×Duration
	Seed     int64         // request-mix seed, default 1
	Vars     []string      // variable names to draw from ("" = server default)
	Ops      []string      // op mix to draw from, default count/sum/mean
	Timeout  time.Duration // per-request timeout_ms sent to the server, 0 = server default
	Retry    bool          // retry sheds through the Client backoff; off = raw status counts
}

// LoadReport aggregates one load run.
type LoadReport struct {
	Sent     int           `json:"sent"`
	OK       int           `json:"ok"`
	Shed     int           `json:"shed"` // final-answer 429s (after any retries)
	Errors5x int           `json:"errors_5xx"`
	Errors4x int           `json:"errors_4xx"` // non-429 4xx
	Network  int           `json:"network_errors"`
	Retries  int           `json:"retries"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	P50      time.Duration `json:"p50_ns"`
	P95      time.Duration `json:"p95_ns"`
	P99      time.Duration `json:"p99_ns"`
	Max      time.Duration `json:"max_ns"`

	// Digests maps "var|op|params" → result digest for every successful
	// answer, for byte-comparing a concurrent run against a serial one.
	// Conflicting digests for one key (a mid-run reload changing answers
	// legitimately) are kept in DigestConflicts for the caller to judge.
	Digests         map[string]string   `json:"-"`
	DigestConflicts map[string][]string `json:"-"`
}

// Throughput is successful answers per second.
func (r *LoadReport) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.OK) / r.Elapsed.Seconds()
}

// RunLoad fires the open-loop generator and blocks until every launched
// request has answered (or ctx ends).
func RunLoad(ctx context.Context, cfg LoadConfig) *LoadReport {
	if cfg.Rate <= 0 {
		cfg.Rate = 100
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if len(cfg.Ops) == 0 {
		cfg.Ops = []string{"count", "sum", "mean"}
	}
	if len(cfg.Vars) == 0 {
		cfg.Vars = []string{""}
	}
	total := cfg.Total
	if total <= 0 {
		total = int(cfg.Rate * cfg.Duration.Seconds())
	}
	interval := time.Duration(float64(time.Second) / cfg.Rate)

	rep := &LoadReport{Digests: map[string]string{}, DigestConflicts: map[string][]string{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	latencies := make([]time.Duration, 0, total)
	rng := rand.New(rand.NewSource(cfg.Seed))

	start := time.Now()
	tick := time.NewTicker(interval)
	defer tick.Stop()
launch:
	for i := 0; i < total; i++ {
		req, key := randomRequest(rng, cfg)
		wg.Add(1)
		rep.Sent++
		go func(seed int64) {
			defer wg.Done()
			cl := &Client{Base: cfg.Base}
			cl.Backoff.Seed = seed
			if !cfg.Retry {
				cl.Backoff.Tries = 1
			}
			t0 := time.Now()
			resp, err := cl.Query(ctx, req)
			lat := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			rep.Retries += cl.Retries
			if err != nil {
				classify(rep, err)
				return
			}
			rep.OK++
			latencies = append(latencies, lat)
			if prev, ok := rep.Digests[key]; ok && prev != resp.Digest {
				rep.DigestConflicts[key] = append(rep.DigestConflicts[key], resp.Digest)
			} else {
				rep.Digests[key] = resp.Digest
			}
		}(cfg.Seed + int64(i))
		if i+1 < total {
			select {
			case <-tick.C:
			case <-ctx.Done():
				break launch
			}
		}
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if n := len(latencies); n > 0 {
		rep.P50 = latencies[n/2]
		rep.P95 = latencies[n*95/100]
		rep.P99 = latencies[n*99/100]
		rep.Max = latencies[n-1]
	}
	return rep
}

// classify buckets a final (post-retry) error into the report.
func classify(rep *LoadReport, err error) {
	var se *StatusError
	for e := err; e != nil; {
		if s, ok := e.(*StatusError); ok {
			se = s
			break
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			break
		}
		e = u.Unwrap()
	}
	switch {
	case se == nil:
		rep.Network++
	case se.Code == http.StatusTooManyRequests:
		rep.Shed++
	case se.Code >= 500:
		rep.Errors5x++
	default:
		rep.Errors4x++
	}
}

// randomRequest draws one request from the configured mix plus a stable
// key identifying its logical parameters (for digest cross-checks).
func randomRequest(rng *rand.Rand, cfg LoadConfig) (*QueryRequest, string) {
	op := cfg.Ops[rng.Intn(len(cfg.Ops))]
	v := cfg.Vars[rng.Intn(len(cfg.Vars))]
	req := &QueryRequest{Op: op, Var: v, TimeoutMs: cfg.Timeout.Milliseconds()}
	// A small palette of subsets so digests repeat across requests and a
	// conflict (two different answers for one logical query) is detectable.
	switch rng.Intn(3) {
	case 0:
		req.ValueLo, req.ValueHi = 0.2, 0.8
	case 1:
		req.ValueLo, req.ValueHi = 0.5, 1.5
	case 2:
		// no bounds: whole-domain aggregate
	}
	if op == "quantile" {
		req.Q = 0.5
	}
	if op == "correlation" && len(cfg.Vars) > 1 {
		req.VarB = cfg.Vars[(rng.Intn(len(cfg.Vars)-1)+1)%len(cfg.Vars)]
		req.BValueLo, req.BValueHi = req.ValueLo, req.ValueHi
	}
	key := loadKey(req)
	return req, key
}

// loadKey identifies a request's logical parameters — two requests with
// the same key must digest identically unless a reload changed the data.
func loadKey(req *QueryRequest) string {
	return fmt.Sprintf("%s|%s|%s|%g,%g,%d,%d,%g",
		req.Var, req.Op, req.VarB,
		req.ValueLo, req.ValueHi, req.SpatialLo, req.SpatialHi, req.Q)
}
