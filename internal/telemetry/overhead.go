package telemetry

import (
	"sort"
	"time"
)

// MeasureOverhead is the ruler of the observability budgets (the
// TELEMETRY_OVERHEAD_GUARD tests, `make overhead`). It times batch with the
// instrumentation off and on (set), rounds times each, alternating which
// side of a round goes first, and returns the median of the rounds' on/off
// ratios less one, with the quartiles. Drift in the host's speed lands on
// both sides of a round alike, and a batch another process interrupted
// moves one ratio, not the answer. A batch should take a few milliseconds.
func MeasureOverhead(rounds int, set func(on bool), batch func()) (median, q1, q3 float64) {
	timed := func(on bool) float64 {
		set(on)
		start := time.Now()
		batch()
		return float64(time.Since(start))
	}
	timed(false)
	timed(true)
	ratios := make([]float64, rounds)
	for r := range ratios {
		if r%2 == 0 {
			off := timed(false)
			ratios[r] = timed(true) / off
		} else {
			on := timed(true)
			ratios[r] = on / timed(false)
		}
	}
	sort.Float64s(ratios)
	return ratios[rounds/2] - 1, ratios[rounds/4] - 1, ratios[3*rounds/4] - 1
}
