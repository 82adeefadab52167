package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"insitubits"
)

// cmdWorkload summarizes a captured workload log: operator mix, cache
// behaviour, operand arity and selectivity, hot value ranges — and, given
// the index the log was captured against, the hot-bin ranking:
//
//	bitmapctl workload -log workload.isql
//	bitmapctl workload -log workload.isql index.isbm
func cmdWorkload(args []string) error {
	fs := flag.NewFlagSet("workload", flag.ExitOnError)
	logPath := fs.String("log", "", "captured workload log (.isql), required")
	jsonOut := fs.Bool("json", false, "emit the summary as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" || fs.NArg() > 1 {
		return fmt.Errorf("usage: bitmapctl workload -log FILE [-json] [INDEX]")
	}
	recs, _, err := insitubits.ReadQueryLog(*logPath)
	if err != nil {
		return err
	}
	var x *insitubits.Index
	if fs.NArg() == 1 {
		if x, err = loadIndex(fs.Arg(0)); err != nil {
			return err
		}
	}
	sum := insitubits.AnalyzeWorkload(recs, x)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(sum)
	}
	fmt.Print(renderWorkload(sum))
	return nil
}

// renderWorkload formats a workload summary. Pure — the command and the
// tests share it.
func renderWorkload(s insitubits.WorkloadSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "queries     %d total, %d replayable, %d errors\n", s.Total, s.Replayable, s.Errors)
	if len(s.ByOp) > 0 {
		ops := make([]string, 0, len(s.ByOp))
		for op := range s.ByOp {
			ops = append(ops, op)
		}
		sort.Slice(ops, func(i, j int) bool {
			if s.ByOp[ops[i]] != s.ByOp[ops[j]] {
				return s.ByOp[ops[i]] > s.ByOp[ops[j]]
			}
			return ops[i] < ops[j]
		})
		parts := make([]string, 0, len(ops))
		for _, op := range ops {
			parts = append(parts, fmt.Sprintf("%s=%d", op, s.ByOp[op]))
		}
		fmt.Fprintf(&b, "mix         %s\n", strings.Join(parts, " "))
	}
	if s.CacheHits+s.CacheMisses > 0 {
		fmt.Fprintf(&b, "cache       %d hits, %d misses (%.1f%% hit rate)\n",
			s.CacheHits, s.CacheMisses, 100*float64(s.CacheHits)/float64(s.CacheHits+s.CacheMisses))
	}
	fmt.Fprintf(&b, "cost        %s total, %d words scanned\n",
		time.Duration(s.ElapsedNs).Round(time.Microsecond), s.Words)
	fmt.Fprintf(&b, "repeats     %d unique parameter sets / %d replayable (repeat ratio %.2f: cache-hit potential)\n",
		s.UniqueQueries, s.Replayable, s.RepeatRatio)
	if s.Arity.Count > 0 {
		fmt.Fprintf(&b, "arity       bins/query min %g p50 %g p90 %g max %g (%d queries)\n",
			s.Arity.Min, s.Arity.P50, s.Arity.P90, s.Arity.Max, s.Arity.Count)
	}
	if s.Selectivity.Count > 0 {
		fmt.Fprintf(&b, "selectivity rows/N min %.4f p50 %.4f p90 %.4f max %.4f (%d queries)\n",
			s.Selectivity.Min, s.Selectivity.P50, s.Selectivity.P90, s.Selectivity.Max, s.Selectivity.Count)
	}
	if len(s.HotRanges) > 0 {
		b.WriteString("hot ranges\n")
		for _, r := range s.HotRanges {
			fmt.Fprintf(&b, "  [%10.4g, %10.4g)  %d queries\n", r.Lo, r.Hi, r.Queries)
		}
	}
	if len(s.HotBins) > 0 {
		b.WriteString("hot bins\n")
		for _, bin := range s.HotBins {
			fmt.Fprintf(&b, "  bin %4d [%10.4g, %10.4g)  %d queries\n", bin.Bin, bin.Lo, bin.Hi, bin.Queries)
		}
	}
	return b.String()
}
