// Command insitu-serve is the always-on query daemon: it loads the
// immutable bitmap indexes an in-situ run published (or any explicit set
// of .isbm files), and serves the full query API — count, sum, mean,
// quantile, minmax, bits, correlation, EXPLAIN — concurrently over
// HTTP/JSON, hardened for production use (docs/SERVING.md):
//
//   - per-request deadlines (server default, per-request override, clamped);
//   - admission control: a max-inflight execution semaphore with a bounded
//     wait queue — overload sheds 429 + Retry-After instead of collapsing;
//   - per-request panic isolation (500 + counter, the server survives);
//   - zero-downtime reload: -watch polls a live run's journal and publishes
//     each newly committed step without dropping in-flight queries; SIGHUP
//     and POST /v1/reload force a reload;
//   - graceful drain on SIGTERM/SIGINT: readiness flips, in-flight requests
//     finish, then the listener closes;
//   - liveness (/healthz) split from readiness (/readyz);
//   - W3C traceparent / X-Trace-Id propagation into traces, the slow-query
//     log and the workload log (captured records carry source=serve).
//
// A session:
//
//	insitu-run -sim heat3d -out run1/ -method bitmaps &
//	insitu-serve -dir run1/ -watch 2s -debug-addr :6060
//	bitmapctl query -addr http://localhost:8689 -op count -lo 1 -hi 5
//	bitmapctl load -addr http://localhost:8689 -rate 500 -duration 10s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"insitubits"
)

func main() {
	addr := flag.String("addr", ":8689", "query API listen address")
	dir := flag.String("dir", "", "serve the newest committed step of this in-situ run directory")
	var indexes multiFlag
	flag.Var(&indexes, "index", "serve this index file, as PATH or NAME=PATH (repeatable; positional args too)")
	watch := flag.Duration("watch", 0, "poll -dir for newly committed steps at this interval and reload (0 = off)")
	maxInflight := flag.Int("max-inflight", 0, "concurrently executing queries (0 = 2x GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "admission wait-queue seats before shedding (0 = 4x max-inflight)")
	timeout := flag.Duration("timeout", 2*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 30*time.Second, "clamp for the per-request timeout_ms override")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long a drain waits for in-flight queries")
	retryAfter := flag.Duration("retry-after", 250*time.Millisecond, "backoff hint stamped on shed (429) responses")
	readTimeout := flag.Duration("read-timeout", 10*time.Second, "HTTP read deadline (slow-loris guard)")
	writeTimeout := flag.Duration("write-timeout", 60*time.Second, "HTTP write deadline")
	debugAddr := flag.String("debug-addr", "", "serve live telemetry, /debug/serve, /readyz and pprof on this address")
	cacheMB := flag.Int("cache-mb", 64, "materialized-bitmap cache size in MB (0 = off)")
	qlogPath := flag.String("qlog", "", "capture every served query into this workload log (.isql, records tagged source=serve)")
	slowLog := flag.String("slowlog", "", `slow-query log destination: "stderr" or a file path (JSON lines)`)
	slowLogThreshold := flag.Duration("slowlog-threshold", 10*time.Millisecond, "log queries slower than this (with -slowlog)")
	trace := flag.Bool("trace", false, "record identity traces per served query, at /debug/traces")
	traceSample := flag.Int("trace-sample", 1, "keep 1 of every N traces (1 keeps all)")
	traceSlow := flag.Duration("trace-slow", 0, "always keep traces slower than this")
	traceRing := flag.Int("trace-ring", 256, "completed traces held in memory")
	flag.Parse()
	indexes = append(indexes, flag.Args()...)

	if *dir == "" && len(indexes) == 0 {
		log.Fatal("nothing to serve: give -dir RUNDIR or index files (-index NAME=PATH or positional)")
	}
	if *dir != "" && len(indexes) > 0 {
		log.Fatal("-dir and explicit index files are mutually exclusive")
	}

	if *cacheMB > 0 {
		insitubits.SetDefaultBitmapCache(insitubits.NewBitmapCache(int64(*cacheMB) << 20))
	}
	if *trace {
		rec := insitubits.NewTraceRecorder(insitubits.TraceConfig{
			Capacity:      *traceRing,
			SampleEvery:   *traceSample,
			SlowThreshold: *traceSlow,
		})
		insitubits.SetTraceRecorder(rec)
	}
	if *qlogPath != "" {
		w, err := insitubits.CreateQueryLog(*qlogPath)
		if err != nil {
			log.Fatal(err)
		}
		w.SetSource("serve")
		insitubits.InstallQueryLog(w)
		defer func() {
			insitubits.InstallQueryLog(nil)
			if err := w.Close(); err != nil {
				log.Printf("workload log: %v", err)
			}
			h := w.Health()
			fmt.Printf("workload log:   %d records to %s (%d dropped, %d errors)\n",
				h.Records, *qlogPath, h.Dropped, h.Errors)
		}()
	}
	if *slowLog != "" {
		w := os.Stderr
		if *slowLog != "stderr" {
			f, err := os.OpenFile(*slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			w = f
		}
		insitubits.SetSlowQueryLog(slog.New(slog.NewJSONHandler(w, nil)), *slowLogThreshold)
	}

	srv := insitubits.NewQueryServer(insitubits.ServeConfig{
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		DrainTimeout:   *drainTimeout,
		RetryAfter:     *retryAfter,
	})
	srv.PublishStatus()

	var err error
	if *dir != "" {
		err = srv.LoadDir(*dir)
	} else {
		err = srv.LoadFiles(indexes)
	}
	if err != nil {
		log.Fatal(err)
	}
	st := srv.Status()
	fmt.Printf("serving:        %s (step %d, catalog generation %d)\n",
		strings.Join(st.Vars, ", "), st.Step, st.CatalogGen)
	fmt.Printf("admission:      %d in-flight slots, %d queue seats, default deadline %s\n",
		st.MaxInflight, st.MaxQueue, *timeout)

	if *debugAddr != "" {
		dbg, err := insitubits.Telemetry.ServeDebug(*debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		insitubits.Telemetry.EnableRuntimeMetrics()
		hist := insitubits.StartMetricsHistory(insitubits.Telemetry, time.Second, 300)
		defer hist.Stop()
		fmt.Printf("debug server:   http://%s  (/debug/serve /readyz /telemetry /metrics /debug/pprof/)\n", dbg.Addr)
	}

	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	if *watch > 0 {
		if *dir == "" {
			log.Fatal("-watch needs -dir")
		}
		go srv.Watch(watchCtx, *watch, func(step int) {
			log.Printf("reloaded: now serving step %d (catalog generation %d)", step, srv.Status().CatalogGen)
		})
	}

	httpSrv := &http.Server{
		Addr:         *addr,
		Handler:      srv.Handler(),
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("query API:      http://localhost%s/v1/query  (POST JSON; /v1/vars, /healthz, /readyz)\n", *addr)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for {
		select {
		case err := <-errCh:
			if err != nil && err != http.ErrServerClosed {
				log.Fatal(err)
			}
			return
		case s := <-sig:
			if s == syscall.SIGHUP {
				if swapped, err := srv.Reload(); err != nil {
					log.Printf("reload: %v", err)
				} else if swapped {
					log.Printf("reloaded: now serving step %d (catalog generation %d)",
						srv.Status().Step, srv.Status().CatalogGen)
				} else {
					log.Printf("reload: no change")
				}
				continue
			}
			// SIGTERM/SIGINT: flip readiness, let in-flight requests finish,
			// then close the listener.
			fmt.Printf("draining:       %s received, waiting up to %s for in-flight queries\n", s, *drainTimeout)
			stopWatch()
			if err := srv.Drain(context.Background()); err != nil {
				log.Printf("drain: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := httpSrv.Shutdown(ctx)
			cancel()
			if err != nil {
				log.Printf("http shutdown: %v", err)
			}
			final := srv.Status()
			fmt.Printf("served:         %d requests (%d admitted, %d shed, %d panics, %d reloads)\n",
				final.Requests, final.Admitted, final.Shed, final.Panics, final.Reloads)
			return
		}
	}
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }
