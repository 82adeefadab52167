package main

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"insitubits"
)

// cmdDiag captures a one-shot diagnostics bundle from a running server
// into a single tar.gz — everything a bug report or postmortem needs in
// one artifact (see docs/OBSERVABILITY.md):
//
//	bitmapctl diag -addr localhost:6060 -out diag.tar.gz
//	bitmapctl diag -addr localhost:6060 -qlog workload.isql -fsck outdir/ -out diag.tar.gz
//
// The bundle holds the debug surfaces (healthz, telemetry with its
// histogram exemplars, the Prometheus metrics, the metrics-history ring,
// traces, run, query-server and cache status), a one-second CPU profile
// plus heap and goroutine profiles from /debug/pprof (gzipped pprof protos
// for `go tool pprof`), and — when pointed at local artifacts — a
// workload-log tail and summary, a slow-log tail, and an fsck summary of an
// output directory. Endpoints the server does not expose are recorded as
// missing in MANIFEST.json rather than failing the capture: a degraded
// server is exactly when a bundle matters most.
func cmdDiag(args []string) error {
	fs := flag.NewFlagSet("diag", flag.ExitOnError)
	addr := fs.String("addr", "localhost:6060", "debug server address (host:port)")
	out := fs.String("out", "", "output bundle path (default diag-<unix>.tar.gz)")
	qlogPath := fs.String("qlog", "", "also bundle a tail + summary of this workload log (.isql)")
	slowlogPath := fs.String("slowlog", "", "also bundle the tail of this slow-query log file")
	fsckDir := fs.String("fsck", "", "also bundle an fsck summary of this pipeline output directory")
	tail := fs.Int("tail", 200, "records/lines to keep from qlog and slow-log tails")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("diag-%d.tar.gz", time.Now().Unix())
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	tw := tar.NewWriter(zw)
	b := &diagBundle{tw: tw, when: time.Now(), manifest: map[string]string{}}

	base := "http://" + *addr
	// The HTTP surfaces: name in the bundle ← endpoint.
	for _, e := range []struct{ name, url string }{
		{"healthz.json", base + "/healthz"},
		{"telemetry.json", base + "/telemetry"},
		{"metrics.prom", base + "/metrics"},
		{"metrics-history.json", base + "/debug/metrics/history"},
		{"run.json", base + "/debug/run"},
		{"serve.json", base + "/debug/serve"},
		{"cache.json", base + "/debug/cache"},
		{"traces.json", base + "/debug/traces"},
		{"profiles/cpu.pb.gz", base + "/debug/pprof/profile?seconds=1"},
		{"profiles/heap.pb.gz", base + "/debug/pprof/heap"},
		{"profiles/goroutine.pb.gz", base + "/debug/pprof/goroutine"},
	} {
		b.addURL(e.name, e.url)
	}
	if *qlogPath != "" {
		b.addQlog(*qlogPath, *tail)
	}
	if *slowlogPath != "" {
		b.addFileTail("slowlog-tail.log", *slowlogPath, *tail)
	}
	if *fsckDir != "" {
		b.addFsck(*fsckDir)
	}
	b.addManifest()

	if err := tw.Close(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	ok, missing := b.counts()
	fmt.Printf("wrote %s: %d sections captured, %d missing (see MANIFEST.json)\n", path, ok, missing)
	return nil
}

// diagBundle accumulates tar entries and a per-section manifest ("ok" or
// the reason a section is absent). Capture errors degrade to manifest
// entries; only writing the archive itself can fail the command.
type diagBundle struct {
	tw       *tar.Writer
	when     time.Time
	manifest map[string]string
	tarErr   error
}

func (b *diagBundle) add(name string, data []byte) {
	if b.tarErr != nil {
		return
	}
	hdr := &tar.Header{
		Name: name, Mode: 0o644, Size: int64(len(data)), ModTime: b.when,
	}
	if err := b.tw.WriteHeader(hdr); err != nil {
		b.tarErr = err
		return
	}
	if _, err := b.tw.Write(data); err != nil {
		b.tarErr = err
		return
	}
	b.manifest[name] = "ok"
}

func (b *diagBundle) miss(name string, err error) {
	b.manifest[name] = err.Error()
}

func (b *diagBundle) addURL(name, url string) {
	data, err := debugGet(url, 64<<20, 10*time.Second)
	if err != nil {
		b.miss(name, err)
		return
	}
	b.add(name, data)
}

// addQlog bundles the analyzed summary and the last n records of a local
// workload log, tolerating a torn tail exactly like `bitmapctl workload`.
func (b *diagBundle) addQlog(path string, n int) {
	recs, _, err := insitubits.ReadQueryLog(path)
	if err != nil {
		b.miss("qlog-tail.json", err)
		return
	}
	sum := insitubits.AnalyzeWorkload(recs, nil)
	if data, err := json.MarshalIndent(sum, "", "  "); err == nil {
		b.add("qlog-summary.json", data)
	}
	if len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		b.miss("qlog-tail.json", err)
		return
	}
	b.add("qlog-tail.json", data)
}

// addFileTail bundles the last n lines of a local text log.
func (b *diagBundle) addFileTail(name, path string, n int) {
	data, err := os.ReadFile(path)
	if err != nil {
		b.miss(name, err)
		return
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	b.add(name, []byte(strings.Join(lines, "\n")+"\n"))
}

// addFsck bundles the verification report of a pipeline output directory
// (read-only: never repairs from inside a diagnostics capture).
func (b *diagBundle) addFsck(dir string) {
	rep, err := insitubits.Fsck(dir, insitubits.FsckOptions{})
	if err != nil {
		b.miss("fsck.json", err)
		return
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		b.miss("fsck.json", err)
		return
	}
	b.add("fsck.json", data)
}

// addManifest writes the capture manifest as the bundle's last entry.
func (b *diagBundle) addManifest() {
	man := struct {
		CapturedAt string            `json:"captured_at"`
		Tool       string            `json:"tool"`
		Sections   map[string]string `json:"sections"`
	}{b.when.UTC().Format(time.RFC3339), "bitmapctl diag", b.manifest}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return
	}
	b.add("MANIFEST.json", data)
}

func (b *diagBundle) counts() (ok, missing int) {
	for _, v := range b.manifest {
		if v == "ok" {
			ok++
		} else {
			missing++
		}
	}
	return ok, missing
}
