// Package replay re-executes a captured workload log (internal/qlog)
// against an index and byte-compares every result digest against the
// recorded one. Because the digests are codec-canonical and the capture
// path records exact parameters, a replay is a true end-to-end regression
// gate: the same log must reproduce identical digests across codec
// conversions and cache on/off — and the per-query latency/words-scanned
// deltas it measures are the comparison report `bitmapctl replay` renders.
package replay

import (
	"context"
	"fmt"
	"sync"
	"time"

	"insitubits/internal/index"
	"insitubits/internal/qlog"
	"insitubits/internal/query"
)

// Options controls pacing and parallelism of a replay.
type Options struct {
	// Concurrency is the number of worker goroutines (<1 means serial).
	Concurrency int
	// Speedup > 0 paces dispatch by the recorded inter-arrival times
	// divided by this factor (1 = realtime, 10 = 10x faster); 0 replays
	// as fast as the workers drain.
	Speedup float64
}

// Result is the outcome of one replayed record.
type Result struct {
	Seq    uint64 `json:"seq"`
	Op     string `json:"op"`
	Detail string `json:"detail,omitempty"`

	// Skipped records are not re-executed; Reason says why (non-replayable
	// op, recorded failure, cancelled run).
	Skipped bool   `json:"skipped,omitempty"`
	Reason  string `json:"reason,omitempty"`

	// Match reports digest equality for replayed records.
	Match    bool   `json:"match"`
	Recorded string `json:"recorded,omitempty"`
	Replayed string `json:"replayed,omitempty"`

	// Recorded vs replayed latency and scan cost.
	RecordedNs    int64 `json:"recorded_ns"`
	ReplayedNs    int64 `json:"replayed_ns,omitempty"`
	RecordedWords int64 `json:"recorded_words,omitempty"`
	ReplayedWords int64 `json:"replayed_words,omitempty"`

	// Err is a replay-side execution failure (the recorded run succeeded
	// but the replay did not).
	Err string `json:"error,omitempty"`
}

// Report aggregates a replay run.
type Report struct {
	Total      int `json:"total"`
	Replayed   int `json:"replayed"`
	Skipped    int `json:"skipped"`
	Matched    int `json:"matched"`
	Mismatched int `json:"mismatched"`
	Failed     int `json:"failed"`

	RecordedNs    int64 `json:"recorded_ns"`
	ReplayedNs    int64 `json:"replayed_ns"`
	RecordedWords int64 `json:"recorded_words"`
	ReplayedWords int64 `json:"replayed_words"`

	// WallNs is the whole replay's wall time (dispatch to last worker).
	WallNs int64 `json:"wall_ns"`

	Results []Result `json:"results"`
}

// Mismatches returns the results whose digests diverged.
func (r *Report) Mismatches() []Result {
	var out []Result
	for _, res := range r.Results {
		if !res.Skipped && res.Err == "" && !res.Match {
			out = append(out, res)
		}
	}
	return out
}

// Err returns a non-nil error when the replay found digest mismatches or
// replay-side failures — the CI gate condition.
func (r *Report) Err() error {
	if r.Mismatched > 0 {
		return fmt.Errorf("replay: %d of %d replayed queries diverged from their recorded digests", r.Mismatched, r.Replayed)
	}
	if r.Failed > 0 {
		return fmt.Errorf("replay: %d of %d replayed queries failed", r.Failed, r.Replayed)
	}
	return nil
}

// Run replays recs against x (and xb for correlation records; xb nil
// falls back to x). Results keep the input order regardless of
// concurrency. Cache state is whatever the caller set up — pass a
// query.WithCache context to replay against a cache.
func Run(ctx context.Context, recs []qlog.Record, x, xb *index.Index, opts Options) *Report {
	if xb == nil {
		xb = x
	}
	rep := &Report{Total: len(recs), Results: make([]Result, len(recs))}
	workers := opts.Concurrency
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				rep.Results[i] = runOne(ctx, &recs[i], x, xb)
			}
		}()
	}
	start := time.Now()
	var t0 int64
	cancelled := false
	for i := range recs {
		if opts.Speedup > 0 && recs[i].UnixNs > 0 {
			if t0 == 0 {
				t0 = recs[i].UnixNs
			} else if target := time.Duration(float64(recs[i].UnixNs-t0) / opts.Speedup); target > 0 {
				if sleep := target - time.Since(start); sleep > 0 {
					select {
					case <-time.After(sleep):
					case <-ctx.Done():
					}
				}
			}
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			cancelled = true
		}
		if cancelled {
			for j := i; j < len(recs); j++ {
				rep.Results[j] = Result{Seq: recs[j].Seq, Op: recs[j].Op, Detail: recs[j].Detail,
					Skipped: true, Reason: "replay cancelled", RecordedNs: recs[j].ElapsedNs}
			}
			break
		}
	}
	close(jobs)
	wg.Wait()
	rep.WallNs = time.Since(start).Nanoseconds()
	for _, res := range rep.Results {
		switch {
		case res.Skipped:
			rep.Skipped++
		case res.Err != "":
			rep.Failed++
			rep.tally(res)
		case res.Match:
			rep.Matched++
			rep.tally(res)
		default:
			rep.Mismatched++
			rep.tally(res)
		}
	}
	rep.Replayed = rep.Matched + rep.Mismatched + rep.Failed
	return rep
}

func (r *Report) tally(res Result) {
	r.RecordedNs += res.RecordedNs
	r.ReplayedNs += res.ReplayedNs
	r.RecordedWords += res.RecordedWords
	r.ReplayedWords += res.ReplayedWords
}

// runOne re-executes a single record under ANALYZE (the profile supplies
// the replayed words-scanned figure) and recomputes its answer's digest.
func runOne(ctx context.Context, rec *qlog.Record, x, xb *index.Index) Result {
	res := Result{Seq: rec.Seq, Op: rec.Op, Detail: rec.Detail,
		Recorded: rec.Result, RecordedNs: rec.ElapsedNs, RecordedWords: rec.Words}
	req, err := query.RequestOf(rec)
	switch {
	case rec.Err != "":
		res.Skipped, res.Reason = true, "recorded query failed: "+rec.Err
	case err != nil:
		res.Skipped, res.Reason = true, "op not replayable from recorded parameters"
	case rec.Result == "":
		res.Skipped, res.Reason = true, "record carries no result digest"
	}
	if res.Skipped {
		return res
	}
	ans, prof, err := query.Analyze(ctx, req, x, xb)
	res.ReplayedNs = prof.ElapsedNs
	res.ReplayedWords = prof.Total().WordsScanned
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Replayed = ans.Digest()
	res.Match = res.Replayed == rec.Result
	return res
}
