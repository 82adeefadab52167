package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"insitubits"
)

// cmdReplay re-executes a captured workload log against an index and
// byte-compares every result digest — the CLI face of the replay
// regression gate (see docs/OBSERVABILITY.md):
//
//	bitmapctl replay -log workload.isql index.isbm
//	bitmapctl replay -log workload.isql -b second.isbm -concurrency 8 index.isbm
//	bitmapctl replay -log workload.isql -speedup 10 index.isbm
//
// The exit status is non-zero when any digest diverges, so the command
// drops straight into CI.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	logPath := fs.String("log", "", "captured workload log (.isql), required")
	bPath := fs.String("b", "", "second index for correlation records (defaults to the primary)")
	concurrency := fs.Int("concurrency", 1, "worker goroutines (1 = serial)")
	speedup := fs.Float64("speedup", 0, "pace dispatch by recorded inter-arrival times / this factor (0 = as fast as possible)")
	jsonOut := fs.Bool("json", false, "emit the full report as JSON")
	top := fs.Int("top", 5, "show the N slowest replayed queries")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" || fs.NArg() != 1 {
		return fmt.Errorf("usage: bitmapctl replay -log FILE [-b SECOND] [-concurrency N] [-speedup X] [-json] [-top N] INDEX")
	}
	recs, valid, err := insitubits.ReadQueryLog(*logPath)
	if err != nil {
		return err
	}
	x, err := loadIndex(fs.Arg(0))
	if err != nil {
		return err
	}
	xb := x
	if *bPath != "" {
		if xb, err = loadIndex(*bPath); err != nil {
			return err
		}
	}
	rep := insitubits.ReplayWorkload(context.Background(), recs, x, xb,
		insitubits.ReplayOptions{Concurrency: *concurrency, Speedup: *speedup})
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Printf("log      %s: %d records (%d valid bytes)\n", *logPath, len(recs), valid)
		fmt.Print(renderReplayReport(rep, *top))
	}
	return rep.Err()
}

// renderReplayReport formats a replay report: totals, the recorded-vs-
// replayed latency and scan-cost comparison, mismatches, and the slowest
// replayed queries. Pure — the command and the tests share it.
func renderReplayReport(rep *insitubits.ReplayReport, top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "replayed %d of %d (%d skipped): %d matched, %d mismatched, %d failed\n",
		rep.Replayed, rep.Total, rep.Skipped, rep.Matched, rep.Mismatched, rep.Failed)
	fmt.Fprintf(&b, "wall     %s\n", time.Duration(rep.WallNs).Round(time.Microsecond))
	if rep.Replayed > 0 {
		fmt.Fprintf(&b, "latency  recorded %s -> replayed %s (%s)\n",
			time.Duration(rep.RecordedNs).Round(time.Microsecond),
			time.Duration(rep.ReplayedNs).Round(time.Microsecond),
			fmtDelta(rep.RecordedNs, rep.ReplayedNs))
		fmt.Fprintf(&b, "words    recorded %d -> replayed %d (%s)\n",
			rep.RecordedWords, rep.ReplayedWords,
			fmtDelta(rep.RecordedWords, rep.ReplayedWords))
	}
	for _, mm := range rep.Mismatches() {
		fmt.Fprintf(&b, "MISMATCH seq %d %s (%s): recorded %s, replayed %s\n",
			mm.Seq, mm.Op, mm.Detail, mm.Recorded, mm.Replayed)
	}
	for _, res := range rep.Results {
		if res.Err != "" {
			fmt.Fprintf(&b, "FAILED   seq %d %s (%s): %s\n", res.Seq, res.Op, res.Detail, res.Err)
		}
	}
	if top > 0 {
		slow := make([]insitubits.ReplayResult, 0, rep.Replayed)
		for _, res := range rep.Results {
			if !res.Skipped {
				slow = append(slow, res)
			}
		}
		sort.Slice(slow, func(i, j int) bool { return slow[i].ReplayedNs > slow[j].ReplayedNs })
		if len(slow) > top {
			slow = slow[:top]
		}
		if len(slow) > 0 {
			fmt.Fprintf(&b, "slowest %d replayed queries:\n", len(slow))
			fmt.Fprintf(&b, "  %6s %-11s %12s %12s %10s  %s\n", "seq", "op", "recorded", "replayed", "words", "detail")
			for _, res := range slow {
				fmt.Fprintf(&b, "  %6d %-11s %12s %12s %10d  %s\n",
					res.Seq, res.Op,
					time.Duration(res.RecordedNs).Round(time.Microsecond),
					time.Duration(res.ReplayedNs).Round(time.Microsecond),
					res.ReplayedWords, res.Detail)
			}
		}
	}
	return b.String()
}

// fmtDelta renders replayed-vs-recorded as a signed percentage.
func fmtDelta(recorded, replayed int64) string {
	if recorded <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*float64(replayed-recorded)/float64(recorded))
}
