package query

import (
	"context"
	"encoding/json"
	"log/slog"
	"sync/atomic"
	"time"
)

// slowLogSink is the installed slow-query sink: executed requests at or
// above the threshold are emitted as one structured record with the full
// profile attached as JSON.
type slowLogSink struct {
	logger    *slog.Logger
	threshold time.Duration
}

var slowLogState atomic.Pointer[slowLogSink]

// SetSlowLog installs a structured slow-query log: every profiled query
// whose wall time reaches threshold is emitted through logger with its
// full ANALYZE profile as a JSON attribute. While a log is installed, the
// plain query entry points route through the profiled execution path so
// slow calls are captured without the caller opting into Analyze variants;
// when no log is installed (the default, and after SetSlowLog(nil, 0))
// the plain path carries zero profiling cost. Safe for concurrent use.
func SetSlowLog(logger *slog.Logger, threshold time.Duration) {
	if logger == nil {
		slowLogState.Store(nil)
		return
	}
	if threshold < 0 {
		threshold = 0
	}
	slowLogState.Store(&slowLogSink{logger: logger, threshold: threshold})
}

// logSlow offers a finished request profile to the installed slow-query
// log; it is emitted when its elapsed time reaches the threshold. The
// funnel's epilogue is its one caller. Nil-safe, no-op when no log is
// installed.
func logSlow(p *Profile) {
	sink := slowLogState.Load()
	if sink == nil || p == nil {
		return
	}
	if time.Duration(p.ElapsedNs) < sink.threshold {
		return
	}
	tel.slowQueries.Inc()
	attrs := []slog.Attr{
		slog.String("query", p.Query),
		slog.String("detail", p.Detail),
		slog.Duration("elapsed", p.Elapsed()),
	}
	if p.TraceID != "" {
		attrs = append(attrs, slog.String("trace_id", p.TraceID))
	}
	if p.PlanDigest != "" {
		attrs = append(attrs, slog.String("plan_digest", p.PlanDigest))
	}
	attrs = append(attrs, slog.Any("profile", json.RawMessage(p.JSON())))
	sink.logger.LogAttrs(context.Background(), slog.LevelWarn, "slow query", attrs...)
}
