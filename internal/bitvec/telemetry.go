package bitvec

import "insitubits/internal/telemetry"

// tel holds the package's telemetry handles. The hot loops never touch
// them: appenders count words into plain struct fields and flush here once
// per built vector (see Appender.flushTelemetry), and bitwise ops record
// one event per operation. All handles are nil-safe, so
// SetTelemetry(nil) disables the package at (almost) zero cost.
var tel struct {
	vectors   *telemetry.Counter // vectors finalized via Appender.Vector
	bits      *telemetry.Counter // logical bits those vectors cover
	litWords  *telemetry.Counter // literal words appended
	fillWords *telemetry.Counter // fill words appended (one per run, not per segment)
	opAnd     *telemetry.Counter
	opOr      *telemetry.Counter
}

// SetTelemetry (re)binds the package's instruments to a registry; nil
// disables them. Bound to telemetry.Default at init.
func SetTelemetry(r *telemetry.Registry) {
	tel.vectors = r.Counter("bitvec.vectors_built")
	tel.bits = r.Counter("bitvec.bits_appended")
	tel.litWords = r.Counter("bitvec.literal_words")
	tel.fillWords = r.Counter("bitvec.fill_words")
	tel.opAnd = r.Counter("bitvec.ops_and")
	tel.opOr = r.Counter("bitvec.ops_or")
}

func init() { SetTelemetry(telemetry.Default) }

// flushTelemetry folds the appender's private word tallies into the package
// counters; called once per finalized vector (Appender.Vector).
func (a *Appender) flushTelemetry() {
	if tel.vectors == nil {
		a.lits, a.fills = 0, 0
		return
	}
	tel.vectors.Inc()
	tel.bits.Add(int64(a.nbits))
	tel.litWords.Add(int64(a.lits))
	tel.fillWords.Add(int64(a.fills))
	a.lits, a.fills = 0, 0
}
