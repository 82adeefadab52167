package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"os/exec"
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

// digestOf extracts the digest=… token from a query command's output.
func digestOf(t *testing.T, out string) string {
	t.Helper()
	for _, f := range strings.Fields(out) {
		if d, ok := strings.CutPrefix(f, "digest="); ok {
			return d
		}
	}
	t.Fatalf("no digest in output:\n%s", out)
	return ""
}

// TestLocalQueryHonoursOpAndSpatialRange: `query FILE` runs the request its
// flags describe — the op, the spatial range, the quantile — through the
// same query layer the server does, so it prints what `query -addr` prints
// for the same flags, digest included.
func TestLocalQueryHonoursOpAndSpatialRange(t *testing.T) {
	dir := t.TempDir()
	raw, idx := filepath.Join(dir, "v.israw"), filepath.Join(dir, "v.isbm")
	if err := cmdGenRaw([]string{"-out", raw, "-steps", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-in", raw, "-out", idx, "-bins", "32"}); err != nil {
		t.Fatal(err)
	}
	srv := insitubits.NewQueryServer(insitubits.ServeConfig{})
	if err := srv.LoadFiles([]string{"v=" + idx}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	x, err := loadIndex(idx)
	if err != nil {
		t.Fatal(err)
	}

	s := insitubits.QuerySubset{ValueLo: 30, ValueHi: 80, SpatialLo: 8000, SpatialHi: 16000}
	want, err := insitubits.RunQuery(context.Background(), insitubits.QueryRequest{Op: "count", A: s}, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := insitubits.SubsetCount(context.Background(), x, insitubits.QuerySubset{ValueLo: 30, ValueHi: 80})
	if err != nil {
		t.Fatal(err)
	}
	if want.Count == 0 || want.Count == whole {
		t.Fatalf("fixture: the spatial range selects %d of %d elements in the value range", want.Count, whole)
	}
	for _, flags := range [][]string{
		{"-lo", "30", "-hi", "80", "-slo", "8000", "-shi", "16000"},
		{"-op", "quantile", "-q", "0.9", "-lo", "30", "-hi", "80", "-slo", "8000", "-shi", "16000"},
		{"-op", "bits", "-lo", "30", "-hi", "80", "-slo", "8000", "-shi", "16000"},
	} {
		local := captureStdout(t, func() error { return cmdQuery(append(flags[:len(flags):len(flags)], idx)) })
		remote := captureStdout(t, func() error {
			return cmdQuery(append([]string{"-addr", ts.URL, "-var", "v"}, flags...))
		})
		if dl, dr := digestOf(t, local), digestOf(t, remote); dl != dr {
			t.Errorf("query %v: local digest %s, remote %s\n%s%s", flags, dl, dr, local, remote)
		}
		// Same result line, apart from the name the operand goes by.
		ll, _, _ := strings.Cut(local, "\n")
		rl, _, _ := strings.Cut(remote, "\n")
		if strings.Replace(ll, "("+idx+")", "(v)", 1) != rl {
			t.Errorf("query %v prints\n%s\nlocally, remotely\n%s", flags, ll, rl)
		}
	}
	out := captureStdout(t, func() error {
		return cmdQuery([]string{"-lo", "30", "-hi", "80", "-slo", "8000", "-shi", "16000", idx})
	})
	if !strings.HasPrefix(out, fmt.Sprintf("count(%s): %d\n", idx, want.Count)) || digestOf(t, out) != want.Digest() {
		t.Errorf("count over [8000,16000) printed\n%swant %d, digest %s", out, want.Count, want.Digest())
	}
	// An inverted or empty range is refused, locally and by the server,
	// rather than answered over the whole variable.
	for _, r := range [][2]string{{"9000", "100"}, {"5", "5"}} {
		if err := cmdQuery([]string{"-slo", r[0], "-shi", r[1], idx}); err == nil {
			t.Errorf("local query over [%s,%s) answered", r[0], r[1])
		}
		if err := cmdQuery([]string{"-addr", ts.URL, "-var", "v", "-slo", r[0], "-shi", r[1]}); err == nil {
			t.Errorf("remote query over [%s,%s) answered", r[0], r[1])
		}
	}
}

// TestBadRequestExitsNonZero runs the command as a process: a NaN quantile
// and a value range with -lo but no -hi are refused with a non-zero exit,
// by query and explain alike, instead of answering over the whole variable.
func TestBadRequestExitsNonZero(t *testing.T) {
	if args := os.Getenv("BITMAPCTL_TEST_ARGS"); args != "" {
		os.Args = append([]string{"bitmapctl"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	dir := t.TempDir()
	raw, idx := filepath.Join(dir, "v.israw"), filepath.Join(dir, "v.isbm")
	if err := cmdGenRaw([]string{"-out", raw, "-steps", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-in", raw, "-out", idx, "-bins", "16"}); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"query", "-op", "quantile", "-q", "NaN", idx},
		{"explain", "-op", "quantile", "-q", "NaN", idx},
		{"query", "-lo", "50", idx},
		{"query", "-lo", "90", "-hi", "50", idx},
		{"explain", "-lo", "50", idx},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadRequestExitsNonZero$")
		cmd.Env = append(os.Environ(), "BITMAPCTL_TEST_ARGS="+strings.Join(args, "\n"))
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Errorf("bitmapctl %s: exit %v, want non-zero\n%s", strings.Join(args[:len(args)-1], " "), err, out)
		}
	}
}
