package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// benchCores is the worker/connection count every workload is sized for.
// It is a constant, not derived at run time: numbers from hosts of other
// shapes are not comparable, and a host with fewer CPUs is refused.
const benchCores = 2

// envInfo is echoed in every report so two result files can be told apart.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitHead    string `json:"git_head"`
	Cores      int    `json:"cores"`
}

func captureEnv(root string) envInfo {
	e := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		GitHead:    "unknown",
		Cores:      benchCores,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// A benchmark checkout need not be a git repository.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		e.GitHead = strings.TrimSpace(string(out))
	}
	return e
}

// findRoot walks up from the working directory to the checkout's root: the
// directory whose go.mod declares module insitubits.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module insitubits\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no insitubits checkout above the working directory (go.mod with `module insitubits`)")
		}
		dir = parent
	}
}

// site is where one invocation builds and scribbles: everything lives under
// <root>/.bench_build, inside the checkout, and the per-process work
// directory is removed on exit.
type site struct {
	root string // checkout root
	bin  string // built daemons
	work string // per-process scratch, removed by close
}

func newSite(root string) (*site, error) {
	s := &site{
		root: root,
		bin:  filepath.Join(root, ".bench_build", "bin"),
		work: filepath.Join(root, ".bench_build", "work", fmt.Sprintf("p%d", os.Getpid())),
	}
	for _, d := range []string{s.bin, s.work} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *site) close() { os.RemoveAll(s.work) }

// tempDir makes a fresh directory under the work directory.
func (s *site) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(s.work, prefix+"-")
}

// buildDaemons compiles insitu-run and insitu-serve from the checkout's
// source; with a warm build cache this is the `go build` staleness check.
func (s *site) buildDaemons(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", s.bin+string(filepath.Separator),
		"./cmd/insitu-run", "./cmd/insitu-serve")
	cmd.Dir = s.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build daemons: %w\n%s", err, out)
	}
	return nil
}

// childStats is what the kernel accounted to one finished child.
type childStats struct {
	wall  time.Duration
	cpu   time.Duration // user + system
	rssMB float64       // resident-set high-water mark
}

// procPeakRSS is a live process's resident-set high-water mark in MB
// (VmHWM of /proc/<pid>/status); 0 where /proc does not say.
func procPeakRSS(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// watchPeakRSS samples a child's VmHWM every 20 ms until stop is called and
// returns the last (largest) reading. ru_maxrss cannot be used for this:
// Linux carries it across exec, so a child's figure starts at its parent's
// resident set at fork time and a large benchmark process would report its
// own size for every child it runs.
func watchPeakRSS(pid int) (stop func() float64) {
	done, result := make(chan struct{}), make(chan float64)
	go func() {
		peak := 0.0
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := procPeakRSS(pid); v > peak {
				peak = v
			}
			select {
			case <-done:
				result <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 { close(done); return <-result }
}

// runChild runs a program to completion and returns its accounting. The
// context kills it; stderr is kept for the error message only.
func runChild(ctx context.Context, bin string, args ...string) (*childStats, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Start()
	st := &childStats{}
	if err == nil {
		stop := watchPeakRSS(cmd.Process.Pid)
		err = cmd.Wait()
		st.rssMB = stop()
		st.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && st.rssMB == 0 {
			st.rssMB = float64(ru.Maxrss) / 1024 // no /proc: the inflated figure beats none
		}
	}
	st.wall = time.Since(start)
	if err != nil {
		return st, fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), err, stderr.Bytes())
	}
	return st, nil
}

// selfCPU is this process's user+system time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSS is this process's resident-set high-water mark in MB.
// resetPeakRSS restarts the mark at the current resident set (Linux
// clear_refs); where that is refused the mark covers the whole process.
func selfPeakRSS() float64 {
	if v := procPeakRSS(os.Getpid()); v > 0 {
		return v
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see selfPeakRSS
}
