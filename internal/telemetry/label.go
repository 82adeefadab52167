package telemetry

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
)

// liveDebugServers counts the DebugServers currently serving. The pprof
// label gate is on exactly while it is above zero: /debug/pprof is the only
// in-process reader of the labels, so labelling without a server would tag
// samples nobody can fetch.
var liveDebugServers atomic.Int32

// LabelsOn reports whether Label attaches pprof labels, i.e. whether at
// least one debug server is serving.
func LabelsOn() bool { return liveDebugServers.Load() > 0 }

// noLabels is the unlabel closure of the disabled path.
func noLabels() {}

// Label attaches key/value pprof labels to the current goroutine and the
// returned context (child goroutines inherit them), so CPU samples taken
// while the labelled work runs attribute to it in /debug/pprof/profile
// (`go tool pprof -tags`, `-tagfocus`). The returned closure restores the
// caller's previous label set. Pairs with an empty key or value are
// dropped; a trailing odd argument is ignored. While no debug server is
// serving this is one atomic load and no allocation.
func Label(ctx context.Context, kv ...string) (context.Context, func()) {
	if liveDebugServers.Load() <= 0 {
		return ctx, noLabels
	}
	pairs := make([]string, 0, len(kv))
	for i := 0; i+1 < len(kv); i += 2 {
		if kv[i] != "" && kv[i+1] != "" {
			pairs = append(pairs, kv[i], kv[i+1])
		}
	}
	if len(pairs) == 0 {
		return ctx, noLabels
	}
	prev := ctx
	ctx = pprof.WithLabels(ctx, pprof.Labels(pairs...))
	pprof.SetGoroutineLabels(ctx)
	return ctx, func() { pprof.SetGoroutineLabels(prev) }
}
