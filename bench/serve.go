package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"insitubits/internal/bitcache"
	"insitubits/internal/index"
	"insitubits/internal/serve"
)

// daemon is a running insitu-serve child.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done bool
	cpu  time.Duration // at exit
	rss  float64       // resident high-water mark when it was told to stop, MB
}

// startDaemon launches insitu-serve with its default flags on a free
// loopback port and waits for /readyz.
func startDaemon(ctx context.Context, bin string, files [2]string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{"-addr", addr}
	for i, name := range oceanVars {
		args = append(args, "-index", name+"="+files[i])
	}
	d := &daemon{cmd: exec.Command(bin, args...), base: "http://" + addr}
	var stderr bytes.Buffer
	d.cmd.Stderr = &stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("insitu-serve not ready on %s: %v\n%s", addr, err, stderr.Bytes())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and collects what the kernel
// accounted to it; a daemon that ignores the signal is killed.
func (d *daemon) stop() {
	if d.done {
		return
	}
	d.done = true
	d.rss = procPeakRSS(d.cmd.Process.Pid) // not ru_maxrss: see watchPeakRSS
	d.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(15*time.Second, func() { d.cmd.Process.Kill() })
	d.cmd.Wait()
	kill.Stop()
	if ps := d.cmd.ProcessState; ps != nil {
		d.cpu = ps.UserTime() + ps.SystemTime()
	}
}

// cpuNow is the live daemon's user+system time (Linux /proc, 10 ms ticks);
// 0 where /proc is not available.
func (d *daemon) cpuNow() time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	var ut, st int64
	fmt.Sscan(f[11], &ut)
	fmt.Sscan(f[12], &st)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// served is one request of a load phase and what came back.
type served struct {
	req    serve.QueryRequest
	hot    bool
	digest string
	err    string // transport error, or a non-200 status (a 429 counts)
	shed   bool
	lat    time.Duration
	open   openSample
}

// newClient is one analysis client: its own keep-alive connection.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   35 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
	}
}

// post sends one request and fills in the outcome.
func post(hc *http.Client, base string, s *served) {
	body, _ := json.Marshal(&s.req)
	resp, err := hc.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err.Error()
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		s.err, s.shed = resp.Status, resp.StatusCode == http.StatusTooManyRequests
		return
	}
	var out struct {
		Digest string `json:"digest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		s.err = err.Error()
		return
	}
	s.digest = out.Digest
}

// serveState is a set-up serve_light workload: the ocean files on disk, the
// daemon answering on loopback, the hot set drawn.
type serveState struct {
	of   *oceanFiles
	vars map[string]*index.Index // in-process twins of the served indexes
	hot  []serve.QueryRequest
	bin  string
	d    *daemon
}

func setupServe(ctx context.Context, rc *runCtx) (state, error) {
	if err := rc.site.buildDaemons(ctx); err != nil {
		return nil, err
	}
	of, err := writeOcean(rc)
	if err != nil {
		return nil, err
	}
	st := &serveState{of: of, vars: map[string]*index.Index{}, hot: genHotSet(rc.sizes, rc.seed, of.od),
		bin: filepath.Join(rc.site.bin, "insitu-serve")}
	for i, name := range oceanVars {
		st.vars[name] = of.idx[i]
	}
	if st.d, err = startDaemon(ctx, st.bin, of.paths); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *serveState) close() {
	if st.d != nil {
		st.d.stop()
	}
	os.RemoveAll(st.of.dir)
}

// closedLoop runs the analysis clients for d: each waits for its reply
// before sending its next request. Streams are numbered from firstStream so
// phases never replay each other's unique requests.
func (st *serveState) closedLoop(ctx context.Context, rc *runCtx, d time.Duration, firstStream int, tr *tracer) [][]served {
	out := make([][]served, rc.sizes.ServeClients)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := range out {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newClient(1)
			defer hc.CloseIdleConnections()
			stream := newRequestStream(rc.seed, firstStream+c, st.of.od, st.hot)
			for n := 0; time.Now().Before(deadline) && ctx.Err() == nil; n++ {
				var s served
				s.req, s.hot = stream.next()
				id, t := tr.begin("serve.request", 0, c<<24|n), time.Now()
				post(hc, st.d.base, &s)
				s.lat = time.Since(t)
				tr.end(id)
				out[c] = append(out[c], s)
			}
		}(c)
	}
	wg.Wait()
	return out
}

// verify holds every answer of a phase against the in-process query layer
// and returns the latencies (ms) of the correct ones, split hot / unique.
func (st *serveState) verify(ctx context.Context, phases [][]served, ops *tally) (all, hot, unique []float64, shed int) {
	for _, reqs := range phases {
		for i := range reqs {
			s := &reqs[i]
			var err error
			if s.err != "" {
				err = fmt.Errorf("served %s %s: %s", s.req.Op, s.req.Var, s.err)
			} else {
				err = checkServed(ctx, &s.req, s.digest, st.vars)
			}
			ops.check(err)
			if s.shed {
				shed++
			}
			if err != nil {
				continue
			}
			ms := float64(s.lat) / 1e6
			all = append(all, ms)
			if s.hot {
				hot = append(hot, ms)
			} else {
				unique = append(unique, ms)
			}
		}
	}
	return
}

// measure is the closed loop: warm-up, then the budget, then the daemon is
// drained so its peak memory can be read.
func (st *serveState) measure(ctx context.Context, rc *runCtx, budget time.Duration) (*result, error) {
	res := newResult()
	warm := time.Duration(rc.sizes.WarmupSeconds * float64(time.Second))
	st.closedLoop(ctx, rc, warm, 0, nil)
	cpu0, t0 := st.d.cpuNow(), time.Now()
	phases := st.closedLoop(ctx, rc, budget, 100, nil)
	wall, cpu := time.Since(t0), st.d.cpuNow()-cpu0
	st.d.stop()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	all, _, _, _ := st.verify(ctx, phases, &res.Ops)
	if len(all) == 0 {
		return res, nil
	}
	asc := sorted(all)
	if cpu <= 0 { // no /proc: fall back to the daemon's whole life
		cpu = st.d.cpu
	}
	putPercentile(res, "op_ms", asc, 50)
	res.put("op_cpu_ms", float64(cpu)/1e6/float64(res.Ops.Attempted), "ms", res.Ops.Attempted)
	res.put("peak_rss_mb", st.d.rss, "MB", 1)
	res.put("stored_bytes_ratio", st.of.storedRatio(), "ratio", 1)
	res.put("serve_qps", float64(len(asc))/wall.Seconds(), "req/s", len(asc))
	putPercentile(res, "serve_p95_ms", asc, 95)
	return res, nil
}

// putPercentile reports the p-th percentile of the ascending latencies (ms),
// but only when at least ten samples lie beyond it.
func putPercentile(res *result, name string, asc []float64, p float64) {
	if top, ok := highestPercentile(len(asc)); ok && p <= top {
		res.put(name, percentile(asc, p), "ms", len(asc))
	}
}

// layers prices a served request from outside. An in-process serve.New
// server with one sequential client splits the round trip into network,
// handler and query time; the daemon then takes a short closed loop (hot
// against unique requests, tail, CPU per request) and an open loop at a
// fixed rate well under capacity, timed from each request's due time.
func (st *serveState) layers(ctx context.Context, rc *runCtx, tr *tracer) (*result, error) {
	res := newResult()
	if err := st.inProcessSplit(ctx, rc, tr, res); err != nil {
		return nil, err
	}
	if st.d.done { // the untraced run drained its daemon to read its memory
		var err error
		if st.d, err = startDaemon(ctx, st.bin, st.of.paths); err != nil {
			return nil, err
		}
	}

	span := time.Duration(rc.sizes.OpenSeconds * float64(time.Second))
	st.closedLoop(ctx, rc, time.Duration(rc.sizes.WarmupSeconds*float64(time.Second)), 0, nil)
	cpu0, t0 := st.d.cpuNow(), time.Now()
	phases := st.closedLoop(ctx, rc, span, 200, tr)
	wall, cpu := time.Since(t0), st.d.cpuNow()-cpu0
	all, hot, unique, shed := st.verify(ctx, phases, &res.Ops)
	if len(all) > 0 {
		asc := sorted(all)
		putPercentile(res, "trace.op_ms", asc, 50)
		res.put("serve.qps", float64(len(asc))/wall.Seconds(), "req/s", len(asc))
		putPercentile(res, "serve.p50_ms", asc, 50)
		putPercentile(res, "serve.p95_ms", asc, 95)
		putPercentile(res, "serve.p99_ms", asc, 99)
		res.put("serve.hot_p50_us", median(hot)*1e3, "us", len(hot))
		res.put("serve.unique_p50_us", median(unique)*1e3, "us", len(unique))
		res.put("serve.cpu_ms_per_kreq", float64(cpu)/1e6/float64(len(asc))*1e3, "ms/kreq", len(asc))
	}

	open := st.openLoop(ctx, rc, span)
	var samples []openSample
	for _, s := range open {
		samples = append(samples, s.open)
	}
	_, _, _, openShed := st.verify(ctx, [][]served{open}, &res.Ops)
	res.put("serve.shed", float64(shed+openShed), "count", len(all)+len(open))
	if lat, late := openLoopStats(samples); len(lat) > 0 {
		putPercentile(res, "serve.open_p50_ms", sorted(lat), 50)
		putPercentile(res, "serve.open_p95_ms", sorted(lat), 95)
		putPercentile(res, "serve.open_late_ms", sorted(late), 95)
	}

	xs := [2]*index.Index{st.vars[oceanVars[0]], st.vars[oceanVars[1]]}
	in := probeInput{raw: st.of.od.raw[0], mapper: st.of.od.mappers[0], pair: xs, stored: xs[:], dir: st.of.dir}
	if err := probeLayers(in, res.Metrics); err != nil {
		return nil, err
	}
	return res, ctx.Err()
}

// openLoop sends at a fixed rate regardless of replies: request i is due at
// i/rate, a late generator sends at once, and every request runs on its own
// goroutine so a slow answer never delays the next send.
func (st *serveState) openLoop(ctx context.Context, rc *runCtx, d time.Duration) []served {
	total := int(d.Seconds() * float64(rc.sizes.OpenRate))
	out := make([]served, total)
	hc := newClient(64)
	defer hc.CloseIdleConnections()
	stream := newRequestStream(rc.seed, 300, st.of.od, st.hot)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < total && ctx.Err() == nil; i++ {
		s := &out[i]
		s.req, s.hot = stream.next()
		s.open.due = time.Duration(i) * time.Second / time.Duration(rc.sizes.OpenRate)
		if wait := s.open.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		s.open.sent = time.Since(start)
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(hc, st.d.base, s)
			s.open.done = time.Since(start)
			s.lat = s.open.done - s.open.sent
		}()
	}
	wg.Wait()
	return out
}

// inProcessSplit answers the same generated requests three ways — over
// loopback to an in-process server, straight into its handler, and through
// the query layer alone — and reports the medians and their differences.
func (st *serveState) inProcessSplit(ctx context.Context, rc *runCtx, tr *tracer, res *result) error {
	bitcache.SetDefault(bitcache.New(int64(rc.sizes.CacheMB) << 20)) // insitu-serve's default
	defer bitcache.SetDefault(nil)
	srv := serve.New(serve.Config{})
	specs := make([]string, len(oceanVars))
	for i, name := range oceanVars {
		specs[i] = name + "=" + st.of.paths[i]
	}
	if err := srv.LoadFiles(specs); err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	n := 200 * rc.sizes.HotSet // 6400 requests at full size
	stream := newRequestStream(rc.seed, 400, st.of.od, st.hot)
	reqs := make([]served, n)
	bodies := make([][]byte, n)
	for i := range reqs {
		reqs[i].req, reqs[i].hot = stream.next()
		bodies[i], _ = json.Marshal(&reqs[i].req)
	}
	lat := func(name string, fn func(i int)) float64 {
		ns := make([]float64, n)
		for i := range ns {
			id, t := tr.begin(name, 0, i), time.Now()
			fn(i)
			ns[i] = float64(time.Since(t).Nanoseconds())
			tr.end(id)
		}
		return median(ns) / 1e3
	}

	hc := newClient(1)
	defer hc.CloseIdleConnections()
	rtt := lat("serve.rtt", func(i int) { post(hc, ts.URL, &reqs[i]) })
	_, _, _, _ = st.verify(ctx, [][]served{reqs}, &res.Ops)

	h := srv.Handler()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, alloc := ms.Mallocs, ms.TotalAlloc
	handler := lat("serve.handler", func(i int) {
		r := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(bodies[i]))
		h.ServeHTTP(httptest.NewRecorder(), r)
	})
	runtime.ReadMemStats(&ms)
	// Includes the recorder and request each call builds, a fixed cost of
	// measuring from outside.
	res.put("serve.allocs_per_req", float64(ms.Mallocs-mallocs)/float64(n), "count", n)
	res.put("serve.alloc_kb_per_req", float64(ms.TotalAlloc-alloc)/float64(n)/1024, "KB/req", n)

	q := lat("serve.query", func(i int) { inProcess(ctx, &reqs[i].req, st.vars) })

	res.put("serve.rtt_p50_us", rtt, "us", n)
	res.put("serve.handler_p50_us", handler, "us", n)
	res.put("serve.query_p50_us", q, "us", n)
	res.put("serve.self_us", handler-q, "us", n)
	res.put("serve.net_us", rtt-handler, "us", n)
	res.put("serve.overhead_ratio", rtt/q, "ratio", n)
	return nil
}
