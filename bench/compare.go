package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readSet loads a set file: one report per line, as written by -out. It
// returns every value seen per workload and end-to-end metric.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		for _, wr := range rep.Workloads {
			if wr.EndToEnd == nil {
				continue
			}
			m := set[wr.Workload]
			if m == nil {
				m = map[string][]float64{}
				set[wr.Workload] = m
			}
			for name, s := range wr.EndToEnd.Metrics {
				m[name] = append(m[name], s.Value)
			}
			m["fail_ratio"] = append(m["fail_ratio"], wr.FailRatio)
		}
	}
	return set, sc.Err()
}

// compareMain applies every end-to-end bound to two sets of runs, base
// first. It exits 1 when any (workload, metric) pair regressed.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE.jsonl CANDIDATE.jsonl")
		return 2
	}
	base, err := readSet(args[0])
	if err == nil && len(base) == 0 {
		err = fmt.Errorf("%s: no end-to-end results", args[0])
	}
	var cand map[string]map[string][]float64
	if err == nil {
		cand, err = readSet(args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-14s %-20s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "base", "candidate", "change", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range append(endToEndFor(wl.name), metricDef{"fail_ratio", "ratio", "lower", 0}) {
			b, c := base[wl.name][m.Name], cand[wl.name][m.Name]
			if len(b) == 0 && len(c) == 0 {
				continue
			}
			v := judge(b, c, m.Better, m.Bound)
			if v == verdictRegressed {
				code = 1
			}
			mb, mc := median(b), median(c)
			change := 0.0
			if mb != 0 {
				change = (mc - mb) / mb
			}
			sp := spread(b)
			if s := spread(c); s > sp {
				sp = s
			}
			fmt.Fprintf(w, "%-14s %-20s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%%  %s (n=%d,%d)\n",
				wl.name, m.Name, mb, mc, 100*change, 100*sp, 100*m.Bound, v, len(b), len(c))
		}
	}
	return code
}
