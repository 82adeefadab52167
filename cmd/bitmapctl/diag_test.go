package main

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"insitubits"
)

// TestDiagBundlesPprofProfiles drives `diag` against a live debug server
// and opens the bundle: the debug surfaces are there, with one metrics
// exposition, a surface this server does not expose is a recorded miss,
// and the cpu, heap and goroutine profiles are non-empty gzipped pprof
// protos recorded ok.
func TestDiagBundlesPprofProfiles(t *testing.T) {
	reg := insitubits.NewTelemetryRegistry()
	srv, err := reg.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	bundle := filepath.Join(t.TempDir(), "diag.tar.gz")
	if err := cmdDiag([]string{"-addr", srv.Addr, "-out", bundle}); err != nil {
		t.Fatal(err)
	}
	sections := readBundle(t, bundle)
	for _, name := range []string{"healthz.json", "telemetry.json", "metrics.prom", "MANIFEST.json"} {
		if _, ok := sections[name]; !ok {
			t.Errorf("bundle missing %s; has %v", name, keys(sections))
		}
	}
	var expositions []string
	for name := range sections {
		if strings.HasPrefix(name, "metrics.") {
			expositions = append(expositions, name)
		}
	}
	if len(expositions) != 1 {
		t.Errorf("bundle holds metrics expositions %v, want only metrics.prom", expositions)
	}
	var man struct {
		Sections map[string]string `json:"sections"`
	}
	if err := json.Unmarshal(sections["MANIFEST.json"], &man); err != nil {
		t.Fatal(err)
	}
	if man.Sections["healthz.json"] != "ok" {
		t.Errorf("manifest healthz = %q", man.Sections["healthz.json"])
	}
	// Endpoints this server does not expose are recorded, not fatal.
	if v := man.Sections["run.json"]; v == "" || v == "ok" {
		t.Errorf("manifest run.json = %q, want a recorded miss", v)
	}
	for _, kind := range []string{"cpu", "heap", "goroutine"} {
		name := "profiles/" + kind + ".pb.gz"
		if got := man.Sections[name]; got != "ok" {
			t.Errorf("manifest %s = %q, want ok", name, got)
		}
		data := sections[name]
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("%s is not a non-empty gzip stream (%d bytes)", name, len(data))
		}
	}
}

func readBundle(t *testing.T, path string) map[string][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(zr)
	out := map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		out[hdr.Name] = data
	}
	return out
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
