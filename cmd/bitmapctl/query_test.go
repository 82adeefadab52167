package main

import (
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"insitubits"
)

// captureStdout runs f with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if ferr != nil {
		t.Fatalf("%v\n%s", ferr, out)
	}
	return string(out)
}

// TestRemoteCorrelationSpatialRange: `query -addr` builds the same request
// the local path would and sends all of it, so a correlation restricted to
// a spatial range reaches the server with the range on both operands and
// answers with the digest of the in-process execution.
func TestRemoteCorrelationSpatialRange(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for _, steps := range []string{"3", "6"} {
		raw, idx := filepath.Join(dir, steps+".israw"), filepath.Join(dir, steps+".isbm")
		if err := cmdGenRaw([]string{"-out", raw, "-steps", steps}); err != nil {
			t.Fatal(err)
		}
		if err := cmdBuild([]string{"-in", raw, "-out", idx, "-bins", "32"}); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, idx)
	}
	srv := insitubits.NewQueryServer(insitubits.ServeConfig{})
	if err := srv.LoadFiles([]string{"early=" + paths[0], "late=" + paths[1]}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	out := captureStdout(t, func() error {
		return cmdQuery([]string{"-addr", ts.URL, "-op", "correlation", "-var", "early", "-var-b", "late",
			"-lo", "30", "-hi", "80", "-slo", "0", "-shi", "100"})
	})

	xa, err := loadIndex(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	xb, err := loadIndex(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	s := insitubits.QuerySubset{ValueLo: 30, ValueHi: 80, SpatialLo: 0, SpatialHi: 100}
	want, err := insitubits.RunQuery(context.Background(),
		insitubits.QueryRequest{Op: insitubits.QueryOpCorrelation, A: s, B: s}, xa, xb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "correlation(early, late)") || !strings.Contains(out, "digest="+want.Digest()+" ") {
		t.Fatalf("remote correlation over [0,100) printed\n%swant digest %s", out, want.Digest())
	}
}
