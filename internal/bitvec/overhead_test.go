package bitvec

import (
	"os"
	"testing"

	"insitubits/internal/telemetry"
)

// appendWorkload is the Algorithm-1-shaped hot loop the < 2% telemetry
// budget is measured on: sparse literal segments separated by zero runs,
// like a bitmap bin over smooth simulation data.
func appendWorkload(vectors, segs int) int {
	total := 0
	var a Appender
	for v := 0; v < vectors; v++ {
		a.Reset()
		for s := 0; s < segs; s++ {
			if s%7 == 3 {
				a.AppendSegment(uint32(s) | 1)
			} else {
				a.AppendSegment(0)
			}
		}
		total += a.Vector().Count()
	}
	return total
}

func BenchmarkAppendTelemetryOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		appendWorkload(8, 4096)
	}
}

func BenchmarkAppendTelemetryOff(b *testing.B) {
	SetTelemetry(nil)
	defer SetTelemetry(telemetry.Default)
	for i := 0; i < b.N; i++ {
		appendWorkload(8, 4096)
	}
}

// TestInstrumentationOverhead guards the observability budget: the
// telemetry-enabled append path must stay within 2% of the disabled path,
// as telemetry.MeasureOverhead reads it. Timing comparisons are too noisy
// for every `go test` run, so the guard only engages when
// TELEMETRY_OVERHEAD_GUARD=1 (the Makefile `overhead` target sets it).
func TestInstrumentationOverhead(t *testing.T) {
	if os.Getenv("TELEMETRY_OVERHEAD_GUARD") == "" {
		t.Skip("set TELEMETRY_OVERHEAD_GUARD=1 to run the timing guard (make overhead)")
	}
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	overhead, q1, q3 := telemetry.MeasureOverhead(400, func(on bool) {
		if on {
			SetTelemetry(telemetry.Default)
		} else {
			SetTelemetry(nil)
		}
	}, func() {
		for i := 0; i < 60; i++ {
			appendWorkload(8, 4096)
		}
	})
	SetTelemetry(telemetry.Default)
	t.Logf("append hot loop: median overhead %.2f%% (quartiles %.2f%%, %.2f%%)", 100*overhead, 100*q1, 100*q3)
	if overhead > 0.02 {
		t.Errorf("telemetry overhead %.2f%% exceeds the 2%% budget", 100*overhead)
	}
}
