package telemetry

import (
	"context"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

func serveTestDebug(t *testing.T, addr string) *DebugServer {
	t.Helper()
	d, err := NewRegistry().ServeDebug(addr)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLabelGate(t *testing.T) {
	ctx := context.Background()
	got, unlabel := Label(ctx, "op", "count")
	if got != ctx {
		t.Error("Label changed the context with no debug server serving")
	}
	unlabel()

	d := serveTestDebug(t, "127.0.0.1:0")
	defer d.Close()
	ctx2, unlabel := Label(ctx, "op", "count", "", "dropped", "odd")
	if ctx2 == ctx {
		t.Error("Label did not attach labels while a debug server serves")
	}
	if v, ok := pprof.Label(ctx2, "op"); !ok || v != "count" {
		t.Errorf("label op = %q %v", v, ok)
	}
	if _, ok := pprof.Label(ctx2, ""); ok {
		t.Error("empty key survived")
	}
	unlabel()
	// All-empty pairs collapse to a no-op even when the gate is on.
	if got, _ := Label(ctx, "", ""); got != ctx {
		t.Error("empty pairs allocated a label set")
	}
}

// TestLabelGateFollowsDebugServers: the gate is on while either of two
// debug servers serves and off once both have stopped; Close after
// Shutdown, a second Close, and a bind that fails each leave the count
// where it was.
func TestLabelGateFollowsDebugServers(t *testing.T) {
	if LabelsOn() {
		t.Fatal("gate on before any debug server")
	}
	a := serveTestDebug(t, "127.0.0.1:0")
	b := serveTestDebug(t, "127.0.0.1:0")
	if _, err := NewRegistry().ServeDebug(a.Addr); err == nil {
		t.Fatal("second bind of a serving address succeeded")
	}
	if n := liveDebugServers.Load(); n != 2 {
		t.Fatalf("live servers = %d, want 2", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if !LabelsOn() {
		t.Fatal("gate off while b still serves (Close after Shutdown counted twice?)")
	}
	b.Close()
	b.Close()
	if LabelsOn() || liveDebugServers.Load() != 0 {
		t.Fatalf("gate on after both servers stopped (count %d)", liveDebugServers.Load())
	}
}

// TestDisabledLabelZeroCost pins the disabled-path budget the query
// prologue depends on: with no debug server serving, Label must return the
// caller's context unchanged, allocate nothing, and cost one atomic load.
// The allocation and identity halves always run; the wall-clock half joins
// the gated overhead guard (`make overhead`). The end-to-end <2% budget on
// the full query prologue is TestAnalyzeOverheadDisabled in internal/query.
func TestDisabledLabelZeroCost(t *testing.T) {
	if LabelsOn() {
		t.Fatal("a debug server leaked from an earlier test")
	}
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(1000, func() {
		c, unlabel := Label(ctx, "op", "count", "generation", "7")
		if c != ctx {
			t.Fatal("disabled Label changed the context")
		}
		unlabel()
	}); allocs != 0 {
		t.Errorf("disabled Label allocates %v objects per call, want 0", allocs)
	}

	if os.Getenv("TELEMETRY_OVERHEAD_GUARD") == "" {
		t.Skip("set TELEMETRY_OVERHEAD_GUARD=1 for the timing half (make overhead)")
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, unlabel := Label(ctx, "op", "count", "generation", "7")
			unlabel()
		}
	})
	// One atomic load plus two calls; 50ns is an order of magnitude of
	// headroom on any machine quiet enough for the guard to be meaningful.
	if ns := r.NsPerOp(); ns > 50 {
		t.Errorf("disabled Label costs %dns/op, want an atomic load (<50ns)", ns)
	} else {
		t.Logf("disabled Label: %dns/op", ns)
	}
}
