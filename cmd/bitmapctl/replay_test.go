package main

import (
	"strings"
	"testing"

	"insitubits"
)

func TestRenderReplayReport(t *testing.T) {
	rep := &insitubits.ReplayReport{
		Total: 10, Replayed: 8, Skipped: 2, Matched: 7, Mismatched: 1,
		RecordedNs: 2_000_000, ReplayedNs: 1_000_000,
		RecordedWords: 4000, ReplayedWords: 3000,
		WallNs: 1_500_000,
		Results: []insitubits.ReplayResult{
			{Seq: 1, Op: "count", Detail: "value in [1, 5)", Match: true,
				Recorded: "aaaa", Replayed: "aaaa", RecordedNs: 900_000, ReplayedNs: 800_000, ReplayedWords: 2000},
			{Seq: 2, Op: "sum", Detail: "value in [2, 7)", Match: false,
				Recorded: "bbbb", Replayed: "cccc", RecordedNs: 400_000, ReplayedNs: 100_000, ReplayedWords: 500},
			{Seq: 3, Op: "quantile", Skipped: true, Reason: "recorded query failed"},
		},
	}
	out := renderReplayReport(rep, 5)
	for _, want := range []string{
		"replayed 8 of 10 (2 skipped): 7 matched, 1 mismatched, 0 failed",
		"latency  recorded 2ms -> replayed 1ms (-50.0%)",
		"words    recorded 4000 -> replayed 3000 (-25.0%)",
		"MISMATCH seq 2 sum (value in [2, 7)): recorded bbbb, replayed cccc",
		"slowest 2 replayed queries:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("renderReplayReport missing %q:\n%s", want, out)
		}
	}
	// The slowest listing is ordered by replayed latency and excludes the
	// skipped record.
	if strings.Contains(out, "quantile") {
		t.Errorf("skipped record listed as slow:\n%s", out)
	}
	if i, j := strings.Index(out, "count"), strings.LastIndex(out, "sum"); i > j {
		t.Errorf("slowest list not sorted by replayed latency:\n%s", out)
	}
	// -top 0 suppresses the listing.
	if out := renderReplayReport(rep, 0); strings.Contains(out, "slowest") {
		t.Errorf("top=0 still rendered the slow list:\n%s", out)
	}
}

func TestFmtDelta(t *testing.T) {
	if got := fmtDelta(0, 5); got != "n/a" {
		t.Errorf("zero-recorded delta: %q", got)
	}
	if got := fmtDelta(100, 150); got != "+50.0%" {
		t.Errorf("fmtDelta(100,150) = %q", got)
	}
	if got := fmtDelta(200, 100); got != "-50.0%" {
		t.Errorf("fmtDelta(200,100) = %q", got)
	}
}

func TestRenderWorkload(t *testing.T) {
	s := insitubits.WorkloadSummary{
		Total: 20, Replayable: 16, Errors: 1,
		ByOp:      map[string]int{"count": 10, "bits": 6, "sum": 4},
		CacheHits: 6, CacheMisses: 2,
		ElapsedNs: 5_000_000, Words: 123456,
		UniqueQueries: 8, RepeatRatio: 0.5,
		HotRanges:   []insitubits.WorkloadRangeCount{{Lo: 1, Hi: 5, Queries: 9}},
		HotBins:     []insitubits.WorkloadBinCount{{Bin: 3, Lo: 1.5, Hi: 2, Queries: 9}},
		Selectivity: insitubits.WorkloadDistribution{Count: 16, Min: 0.01, P50: 0.2, P90: 0.7, Max: 0.9},
	}
	out := renderWorkload(s)
	for _, want := range []string{
		"queries     20 total, 16 replayable, 1 errors",
		"mix         count=10 bits=6 sum=4",
		"cache       6 hits, 2 misses (75.0% hit rate)",
		"123456 words scanned",
		"repeat ratio 0.50",
		"selectivity rows/N min 0.0100 p50 0.2000 p90 0.7000 max 0.9000",
		"hot ranges",
		"9 queries",
		"bin    3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("renderWorkload missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "arity") {
		t.Errorf("empty arity distribution rendered:\n%s", out)
	}
}
