package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"insitubits"
)

// cmdTop renders a live terminal view of the pipeline run published at a
// debug server's /debug/run endpoint (see docs/OBSERVABILITY.md):
//
//	bitmapctl top -addr localhost:6060
//	bitmapctl top -addr localhost:6060 -once   # one snapshot, no refresh
//
// Pointed at an insitu-serve debug address (no pipeline run, but a
// /debug/serve surface), it renders the query-server dashboard instead:
// admission pressure, shed counters and catalog generation.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "localhost:6060", "debug server address (host:port)")
	interval := fs.Duration("interval", time.Second, "refresh interval")
	once := fs.Bool("once", false, "print one snapshot and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *interval < 100*time.Millisecond {
		*interval = 100 * time.Millisecond
	}
	url := fmt.Sprintf("http://%s/debug/run", *addr)
	serveURL := fmt.Sprintf("http://%s/debug/serve", *addr)
	histURL := fmt.Sprintf("http://%s/debug/metrics/history", *addr)
	for {
		out, err := "", error(nil)
		if st, rerr := fetchRunStatus(url); rerr == nil {
			out = renderTop(st)
		} else if sst, serr := fetchServeStatus(serveURL); serr == nil {
			// No pipeline run here — but a query server is publishing
			// /debug/serve, so show its dashboard instead.
			out = renderServeTop(sst)
		} else {
			err = rerr
		}
		if err != nil {
			if *once {
				return err
			}
			// Transient between runs or while the server restarts: show it
			// and keep polling.
			fmt.Printf("\033[H\033[2Jbitmapctl top: %v (retrying every %s)\n", err, *interval)
		} else {
			// The metrics history is optional (the server may not have
			// started a sampler) — render sparklines when it's there.
			if hist, herr := fetchMetricsHistory(histURL); herr == nil {
				out += renderHistory(hist, 30)
			}
			if *once {
				fmt.Print(out)
				return nil
			}
			// Home + clear-to-end keeps the repaint flicker-free.
			fmt.Print("\033[H\033[2J" + out)
		}
		time.Sleep(*interval)
	}
}

// debugGet GETs one debug endpoint, reading at most limit bytes of its
// body; a status other than 200 is an error that carries the body.
func debugGet(url string, limit int64, timeout time.Duration) ([]byte, error) {
	client := http.Client{Timeout: timeout}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s (%s)", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// debugGetJSON is debugGet with a five-second timeout, decoding the body
// into v; what names the payload in a decode error.
func debugGetJSON(url string, limit int64, what string, v any) error {
	body, err := debugGet(url, limit, 5*time.Second)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decoding %s: %w", what, err)
	}
	return nil
}

// fetchRunStatus GETs and decodes one /debug/run snapshot.
func fetchRunStatus(url string) (insitubits.RunStatus, error) {
	var st insitubits.RunStatus
	err := debugGetJSON(url, 1<<20, "run status", &st)
	return st, err
}

// fetchServeStatus GETs and decodes one /debug/serve snapshot.
func fetchServeStatus(url string) (insitubits.ServeStatus, error) {
	var st insitubits.ServeStatus
	err := debugGetJSON(url, 1<<20, "serve status", &st)
	return st, err
}

// fetchMetricsHistory GETs and decodes one /debug/metrics/history dump.
func fetchMetricsHistory(url string) (insitubits.MetricsHistoryDump, error) {
	var d insitubits.MetricsHistoryDump
	err := debugGetJSON(url, 8<<20, "metrics history", &d)
	return d, err
}

// renderTop formats one run-status snapshot as a terminal screen. Pure —
// the refresh loop and the tests share it.
func renderTop(st insitubits.RunStatus) string {
	var b strings.Builder
	state := "running"
	if st.Done {
		state = "done"
	}
	fmt.Fprintf(&b, "insitubits run  %s  method=%s", state, st.Method)
	if st.Strategy != "" {
		fmt.Fprintf(&b, "  strategy=%s", st.Strategy)
	}
	fmt.Fprintf(&b, "  workload=%s\n", st.Workload)

	done := st.StepsDone
	if st.Steps > 0 && done > st.Steps {
		done = st.Steps
	}
	fmt.Fprintf(&b, "steps     %s %d/%d", progressBar(done, st.Steps, 30), done, st.Steps)
	if st.CurrentStep >= 0 {
		fmt.Fprintf(&b, "  (current %d)", st.CurrentStep)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "selected  %d steps, %s written\n", st.Selected, fmtBytes(st.BytesWritten))
	fmt.Fprintf(&b, "queue     depth %d, peak %d\n", st.QueueDepth, st.QueuePeak)
	if st.Generation > 0 || st.Journal != "" {
		fmt.Fprintf(&b, "index     generation %d", st.Generation)
		if st.Journal != "" {
			fmt.Fprintf(&b, ", journal %s", st.Journal)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "elapsed   %s\n", time.Duration(st.ElapsedNs).Round(time.Millisecond))

	if len(st.Phases) > 0 {
		names := make([]string, 0, len(st.Phases))
		for name := range st.Phases {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteString("phases    ")
		for i, name := range names {
			p := st.Phases[name]
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%s %s/%d", name, time.Duration(p.TotalNs).Round(time.Millisecond), p.Count)
		}
		b.WriteByte('\n')
	}
	if len(st.CodecBins) > 0 {
		parts := make([]string, 0, len(st.CodecBins))
		for _, id := range []string{"wah", "bbc", "other"} {
			if n := st.CodecBins[id]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", id, n))
			}
		}
		fmt.Fprintf(&b, "codecs    %s (bins encoded)\n", strings.Join(parts, " "))
	}
	if st.TraceID != "" {
		fmt.Fprintf(&b, "trace     %s (GET /debug/traces?id=%s)\n", st.TraceID, st.TraceID)
	}
	return b.String()
}

// renderServeTop formats one query-server snapshot as a terminal screen.
// Pure — the refresh loop and the tests share it.
func renderServeTop(st insitubits.ServeStatus) string {
	var b strings.Builder
	fmt.Fprintf(&b, "insitu-serve  %s", st.State)
	if len(st.Vars) > 0 {
		fmt.Fprintf(&b, "  vars=%s", strings.Join(st.Vars, ","))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "catalog   generation %d", st.CatalogGen)
	if st.Step >= 0 {
		fmt.Fprintf(&b, ", step %d", st.Step)
	}
	fmt.Fprintf(&b, ", %d reloads\n", st.Reloads)
	fmt.Fprintf(&b, "inflight  %s %d/%d\n", progressBar(st.Inflight, st.MaxInflight, 30), st.Inflight, st.MaxInflight)
	fmt.Fprintf(&b, "queued    %s %d/%d\n", progressBar(st.Queued, st.MaxQueue, 30), st.Queued, st.MaxQueue)
	fmt.Fprintf(&b, "requests  %d total, %d admitted, %d shed, %d queue-cancelled, %d refused\n",
		st.Requests, st.Admitted, st.Shed, st.Cancelled, st.Refused)
	if st.Panics > 0 {
		fmt.Fprintf(&b, "panics    %d isolated (500s served, see the slow/workload logs)\n", st.Panics)
	}
	return b.String()
}

// queryOpCounters are the per-entry-point counters summed into the
// queries/s rate line.
var queryOpCounters = []string{
	"query.bits", "query.count", "query.sum", "query.minmax",
	"query.quantile", "query.correlation", "query.masked",
}

// renderHistory formats the metrics-history ring as sparkline rate lines:
// query throughput, operand word scans, cache hit-rate, and workload-log
// capture rate — only series that moved during the window are shown. Pure —
// the refresh loop and the tests share it.
func renderHistory(d insitubits.MetricsHistoryDump, width int) string {
	if len(d.Samples) < 2 {
		return ""
	}
	var b strings.Builder
	sumRates := func(names ...string) []float64 {
		var out []float64
		for _, name := range names {
			series, ok := d.Rates[name]
			if !ok {
				continue
			}
			if out == nil {
				out = make([]float64, len(series))
			}
			for i, v := range series {
				out[i] += v
			}
		}
		return out
	}
	line := func(label, unit string, vals []float64) {
		if len(vals) == 0 {
			return
		}
		last := vals[len(vals)-1]
		max := 0.0
		for _, v := range vals {
			if v > max {
				max = v
			}
		}
		if max == 0 {
			return // flat zero: nothing happened in the window
		}
		fmt.Fprintf(&b, "%-9s %s %.4g%s\n", label, sparkline(vals, width), last, unit)
	}
	line("queries", "/s", sumRates(queryOpCounters...))
	line("served", "/s", sumRates("serve.requests"))
	line("shed", "/s", sumRates("serve.shed"))
	line("scans", " words/s", sumRates("query.codec_ops.wah", "query.codec_ops.bbc", "query.codec_ops.other"))
	line("steps", "/s", sumRates("insitu.steps_processed"))
	line("qlog", " rec/s", sumRates("qlog.records"))
	// Cache hit-rate needs hits and misses per interval, not a plain sum.
	hits, misses := d.Rates["bitcache.hits"], d.Rates["bitcache.misses"]
	if len(hits) > 0 && len(hits) == len(misses) {
		pct := make([]float64, len(hits))
		any := false
		for i := range hits {
			if total := hits[i] + misses[i]; total > 0 {
				pct[i] = 100 * hits[i] / total
				any = true
			}
		}
		if any {
			fmt.Fprintf(&b, "%-9s %s %.1f%%\n", "cache hit", sparkline(pct, width), pct[len(pct)-1])
		}
	}
	if b.Len() == 0 {
		return ""
	}
	return "rates over last " + (time.Duration(d.IntervalNs) * time.Duration(len(d.Samples)-1)).Round(time.Second).String() + ":\n" + b.String()
}

// sparkLevels are the eight block glyphs a sparkline is drawn with.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vals scaled to the block glyphs, downsampled (max of
// each bucket, so spikes survive) to at most width runes.
func sparkline(vals []float64, width int) string {
	if len(vals) == 0 || width <= 0 {
		return ""
	}
	if len(vals) > width {
		packed := make([]float64, width)
		for i, v := range vals {
			j := i * width / len(vals)
			if v > packed[j] {
				packed[j] = v
			}
		}
		vals = packed
	}
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	out := make([]rune, len(vals))
	for i, v := range vals {
		level := 0
		if max > 0 {
			level = int(v / max * float64(len(sparkLevels)-1))
		}
		out[i] = sparkLevels[level]
	}
	return string(out)
}

// progressBar renders done/total as a fixed-width bar.
func progressBar(done, total, width int) string {
	if total <= 0 {
		return "[" + strings.Repeat("-", width) + "]"
	}
	filled := done * width / total
	if filled > width {
		filled = width
	}
	return "[" + strings.Repeat("#", filled) + strings.Repeat(".", width-filled) + "]"
}

// fmtBytes renders a byte count human-readably.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
