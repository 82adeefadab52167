package replay

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/bitcache"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/qlog"
	"insitubits/internal/query"
)

// replayTestData mixes smooth waves (long fills) with noise (literals).
func replayTestData(n, phase int) []float64 {
	data := make([]float64, n)
	for i := range data {
		switch {
		case i%113 == 0:
			data[i] = float64((i + phase) % 8)
		case (i/256)%4 == 0:
			data[i] = float64(((i + phase) / 256) % 8)
		default:
			data[i] = 4 + 3.9*math.Sin(float64(i+phase)/300)
		}
	}
	return data
}

func buildPair(t *testing.T, id codec.ID) (*index.Index, *index.Index) {
	t.Helper()
	m, err := binning.NewUniform(0, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	const n = 31 * 600
	return index.BuildCodec(replayTestData(n, 0), m, id),
		index.BuildCodec(replayTestData(n, 1777), m, id)
}

// captureCanned records the canned mixed workload — every replayable op,
// value/spatial/combined predicates, a repeated query, and one failing
// query — and returns the parsed log.
func captureCanned(t *testing.T, dir string, x, xb *index.Index) []qlog.Record {
	t.Helper()
	path := filepath.Join(dir, "canned.isql")
	w, err := qlog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	qlog.Install(w)
	defer qlog.Install(nil)
	ctx := context.Background()
	n := x.N()
	subs := []query.Subset{
		{ValueLo: 1, ValueHi: 5},
		{SpatialLo: 31, SpatialHi: n - 31},
		{ValueLo: 2, ValueHi: 7, SpatialLo: 100, SpatialHi: n / 2},
		{ValueLo: 0, ValueHi: 8},
		{ValueLo: 3, ValueHi: 4, SpatialLo: 0, SpatialHi: n},
	}
	for _, s := range subs {
		if _, err := query.Bits(ctx, x, s); err != nil {
			t.Fatal(err)
		}
		if _, err := query.Count(ctx, x, s); err != nil {
			t.Fatal(err)
		}
		if _, err := query.Sum(ctx, x, s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := query.Mean(ctx, x, subs[0]); err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.99} {
		if _, err := query.Quantile(ctx, x, subs[2], q); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := query.MinMax(ctx, x, subs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := query.Correlation(ctx, x, xb, subs[0], query.Subset{ValueLo: 2, ValueHi: 6}); err != nil {
		t.Fatal(err)
	}
	// Repeat an earlier query (cache-hit shape) and record one failure.
	if _, err := query.Count(ctx, x, subs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := query.Count(ctx, x, query.Subset{SpatialLo: -1, SpatialHi: 5}); err == nil {
		t.Fatal("expected validation error")
	}
	qlog.Install(nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := qlog.ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestReplayDiff is the `make replay-diff` acceptance gate: a workload
// captured against an index must replay with byte-identical result
// digests across both codecs, with the bitmap cache on and off,
// concurrently and serially — and across codec conversion of the index
// itself.
func TestReplayDiff(t *testing.T) {
	for _, id := range []codec.ID{codec.WAH, codec.BBC} {
		t.Run(id.String(), func(t *testing.T) {
			x, xb := buildPair(t, id)
			recs := captureCanned(t, t.TempDir(), x, xb)
			if len(recs) < 20 {
				t.Fatalf("canned workload captured only %d records", len(recs))
			}
			for _, cached := range []bool{true, false} {
				name := fmt.Sprintf("cache=%t", cached)
				ctx := context.Background()
				if cached {
					ctx = query.WithCache(ctx, bitcache.New(32<<20))
				}
				// Replay twice against the same context: the second pass
				// hits whatever the first materialized, and digests must
				// not care.
				for pass := 0; pass < 2; pass++ {
					rep := Run(ctx, recs, x, xb, Options{Concurrency: 4})
					if err := rep.Err(); err != nil {
						for _, mm := range rep.Mismatches() {
							t.Errorf("%s pass %d: seq %d %s (%s): recorded %s replayed %s",
								name, pass, mm.Seq, mm.Op, mm.Detail, mm.Recorded, mm.Replayed)
						}
						t.Fatalf("%s pass %d: %v", name, pass, err)
					}
					if rep.Replayed == 0 || rep.Skipped == 0 {
						t.Fatalf("%s: replayed=%d skipped=%d (want both nonzero: the failing record must skip)",
							name, rep.Replayed, rep.Skipped)
					}
					if rep.Replayed+rep.Skipped != rep.Total {
						t.Fatalf("%s: %d+%d != %d", name, rep.Replayed, rep.Skipped, rep.Total)
					}
				}
			}
		})
	}

	// Cross-codec: capture on WAH, replay against the BBC and auto
	// recodings — the digests are codec-canonical, so content equality is
	// exactly digest equality.
	x, xb := buildPair(t, codec.WAH)
	recs := captureCanned(t, t.TempDir(), x, xb)
	for _, id := range []codec.ID{codec.BBC, codec.Auto} {
		rx, rxb := x.Recode(id), xb.Recode(id)
		rep := Run(context.Background(), recs, rx, rxb, Options{})
		if err := rep.Err(); err != nil {
			for _, mm := range rep.Mismatches() {
				t.Errorf("recode %s: seq %d %s: recorded %s replayed %s",
					id, mm.Seq, mm.Op, mm.Recorded, mm.Replayed)
			}
			t.Fatalf("replay against %s recode: %v", id, err)
		}
	}
}

// oldLog is a workload log exactly as the commit before the planner switch
// was removed wrote it: every record carries "planner":true, and plan
// digests that embedded the planner mode. It was captured against the index
// TestReplayOldLog rebuilds.
const oldLog = `isqlog 1
30b25447 {"v":1,"seq":1,"unix_ns":1790866147643072796,"op":"bits","detail":"value=[2,6) spatial=[31,2000)","n":3100,"value_lo":2,"value_hi":6,"spatial_lo":31,"spatial_hi":2000,"gen":2,"plan":"b8b0e5af","planner":true,"bins":4,"words":504,"rows":984,"elapsed_ns":40168,"result":"b09d84f7"}
eec07e32 {"v":1,"seq":2,"unix_ns":1790866147643205777,"op":"count","detail":"spatial=[100,3000)","n":3100,"spatial_lo":100,"spatial_hi":3000,"gen":2,"plan":"6971a0df","planner":true,"bins":8,"words":800,"rows":2900,"elapsed_ns":6142,"result":"c56b7a6a"}
978b5ada {"v":1,"seq":3,"unix_ns":1790866147643214614,"op":"quantile","detail":"q=0.25 value=[2,6) spatial=[31,2000)","n":3100,"value_lo":2,"value_hi":6,"spatial_lo":31,"spatial_hi":2000,"q":0.25,"gen":2,"plan":"4144b696","planner":true,"bins":4,"words":400,"rows":984,"elapsed_ns":3483,"result":"e4dcc4f6"}
`

// TestReplayOldLog: the reader still accepts logs written while the
// planner switch existed — the "planner" key is simply no longer known —
// and their records replay to the digests recorded then. The count-shaped
// records scan what they did; the bits record was written under pairwise
// compressed merges, and flat execution may scan fewer words than those,
// never more.
func TestReplayOldLog(t *testing.T) {
	recs, valid, err := qlog.ParseLog([]byte(oldLog))
	if err != nil || valid != int64(len(oldLog)) || len(recs) != 3 {
		t.Fatalf("old log: %d records, %d of %d bytes valid, err %v", len(recs), valid, len(oldLog), err)
	}
	m, err := binning.NewUniform(0, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float64, 31*100)
	for i := range data {
		data[i] = float64((i/31 + i%7) % 8)
	}
	rep := Run(context.Background(), recs, index.BuildCodec(data, m, codec.WAH), nil, Options{})
	if err := rep.Err(); err != nil || rep.Matched != 3 {
		t.Fatalf("old log does not replay: matched %d of 3, %v", rep.Matched, err)
	}
	if rep.ReplayedWords > rep.RecordedWords || rep.ReplayedWords < 1200+400 {
		t.Errorf("words scanned since the log was written: recorded %d, replayed %d", rep.RecordedWords, rep.ReplayedWords)
	}
}

// TestReplayDetectsDivergence: a tampered digest must fail the gate —
// otherwise the suite proves nothing.
func TestReplayDetectsDivergence(t *testing.T) {
	x, xb := buildPair(t, codec.WAH)
	recs := captureCanned(t, t.TempDir(), x, xb)
	var tampered bool
	for i := range recs {
		if recs[i].Replayable() {
			recs[i].Result = "00000000"
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no replayable record to tamper with")
	}
	rep := Run(context.Background(), recs, x, xb, Options{})
	if rep.Mismatched != 1 {
		t.Fatalf("mismatched = %d, want 1", rep.Mismatched)
	}
	if rep.Err() == nil {
		t.Fatal("tampered log passed the gate")
	}
	if len(rep.Mismatches()) != 1 {
		t.Fatalf("Mismatches() = %v", rep.Mismatches())
	}
}

// TestReplayPacingAndCancel covers -speedup pacing and context cancel.
func TestReplayPacingAndCancel(t *testing.T) {
	x, xb := buildPair(t, codec.WAH)
	recs := captureCanned(t, t.TempDir(), x, xb)
	// Spread the records over a synthetic 50ms span and replay at 10x:
	// the wall time must reflect the pacing (≳ span/speedup, minus the
	// final-record dispatch) without anything diverging.
	span := int64(50 * 1e6)
	for i := range recs {
		recs[i].UnixNs = 1 + span*int64(i)/int64(len(recs))
	}
	rep := Run(context.Background(), recs, x, xb, Options{Speedup: 10})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.WallNs < span/20 {
		t.Errorf("paced replay finished in %dns, faster than the schedule allows", rep.WallNs)
	}
	// A cancelled context skips the undispatched tail instead of hanging.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep = Run(ctx, recs, x, xb, Options{Speedup: 10})
	if rep.Skipped == 0 || rep.Total != len(recs) {
		t.Errorf("cancelled replay: skipped=%d total=%d", rep.Skipped, rep.Total)
	}
}

// TestReplayReportFigures sanity-checks the latency/words aggregation the
// CLI report renders.
func TestReplayReportFigures(t *testing.T) {
	x, xb := buildPair(t, codec.BBC)
	recs := captureCanned(t, t.TempDir(), x, xb)
	rep := Run(context.Background(), recs, x, xb, Options{})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.RecordedNs <= 0 || rep.ReplayedNs <= 0 {
		t.Errorf("latency totals: recorded=%d replayed=%d", rep.RecordedNs, rep.ReplayedNs)
	}
	if rep.RecordedWords <= 0 || rep.ReplayedWords <= 0 {
		t.Errorf("word totals: recorded=%d replayed=%d", rep.RecordedWords, rep.ReplayedWords)
	}
	// Same index, same cache state: scan costs must agree exactly.
	if rep.RecordedWords != rep.ReplayedWords {
		t.Errorf("words scanned diverged: recorded=%d replayed=%d", rep.RecordedWords, rep.ReplayedWords)
	}
	for _, res := range rep.Results {
		if res.Skipped {
			continue
		}
		if res.ReplayedNs <= 0 {
			t.Errorf("seq %d: no replayed latency", res.Seq)
		}
	}
}
