package insitu

import (
	"bytes"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
	"time"

	"insitubits/internal/qlog"
	"insitubits/internal/query"
	"insitubits/internal/telemetry"
)

// bothStrategies are the two core allocations the phase tests run under,
// by subtest name.
var bothStrategies = map[string]Strategy{"shared": SharedCores{}, "separate": SeparateCores{SimCores: 2, ReduceCores: 2}}

// TestPhaseRecordIsTheRunReport asserts that the run report's breakdown and
// the /debug/run phases are one record: Breakdown, StageTime and WriteTime
// equal RunStatus.Phases to the nanosecond, under both strategies.
func TestPhaseRecordIsTheRunReport(t *testing.T) {
	for name, strategy := range bothStrategies {
		t.Run(name, func(t *testing.T) {
			cfg := heatConfig(t, Bitmaps)
			cfg.Strategy = strategy
			cfg.OutputDir = t.TempDir()
			reg := telemetry.NewRegistry()
			cfg.Telemetry = reg
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			v, _ := reg.StatusValue(RunStatusName)
			phases := v.(RunStatus).Phases
			for name, got := range map[string]time.Duration{
				SpanSimulate: res.Breakdown.Simulate,
				SpanReduce:   res.Breakdown.Reduce,
				SpanStage:    res.StageTime,
				SpanSelect:   res.Breakdown.Select,
				SpanWrite:    res.WriteTime,
			} {
				p := phases[name]
				if p.Count == 0 || got <= 0 || int64(got) != p.TotalNs {
					t.Errorf("phase %s: report %v, /debug/run %dns over %d runs; want equal and positive",
						name, got, p.TotalNs, p.Count)
				}
			}
			if got := phases[SpanSimulate].Count; got != int64(cfg.Steps) {
				t.Errorf("simulate ran %d times, want once per step (%d)", got, cfg.Steps)
			}
			if res.StageTime > res.Breakdown.Reduce {
				t.Errorf("stage %v exceeds the reduce time %v it nests in", res.StageTime, res.Breakdown.Reduce)
			}
			if g := reg.Gauge("insitu.queue_depth"); name == "separate" && g.Max() < 1 {
				t.Errorf("separate-cores run never raised the queue depth watermark")
			}
			if c := reg.Counter("insitu.steps_processed"); c.Value() != int64(cfg.Steps) {
				t.Errorf("steps_processed = %d, want %d", c.Value(), cfg.Steps)
			}
		})
	}
}

// TestStepTraceHasEveryPhase asserts the identity trace of each step: with
// a recorder installed, every insitu.step trace has simulate, a reduce with
// a stage under it and the reduce that summarizes, a select for every step
// scored against a selection (all but step 0), and, where a step commits a
// selection, a reduce with the encode under it and a write; the write
// phases add up to the selected steps, step 0's among them.
func TestStepTraceHasEveryPhase(t *testing.T) {
	for name, strategy := range bothStrategies {
		t.Run(name, func(t *testing.T) {
			rec := telemetry.NewTraceRecorder(telemetry.TraceConfig{Capacity: 64})
			telemetry.SetTraceRecorder(rec)
			defer telemetry.SetTraceRecorder(nil)
			cfg := heatConfig(t, Bitmaps)
			cfg.Strategy = strategy
			cfg.OutputDir = t.TempDir()
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			traces := rec.Traces()
			if len(traces) != cfg.Steps {
				t.Fatalf("%d traces kept, want one per step (%d)", len(traces), cfg.Steps)
			}
			writes := 0
			for _, tr := range traces {
				if tr.Name != SpanStep {
					t.Fatalf("trace %s is a %q, want %q", tr.TraceID, tr.Name, SpanStep)
				}
				root, step := tr.Spans[0], tr.Spans[0].Attrs["step"]
				names := map[string]string{}
				for _, sp := range tr.Spans {
					names[sp.SpanID] = sp.Name
				}
				n := map[string]int{} // phases where they belong: stage and encode under reduce, the rest under the step
				for _, sp := range tr.Spans[1:] {
					under := root.SpanID
					if sp.Name == SpanStage || sp.Name == SpanEncode {
						under = ""
						if names[sp.ParentID] == SpanReduce {
							under = sp.ParentID
						}
					}
					if sp.ParentID == under {
						n[sp.Name]++
					}
				}
				wantSelect := 1
				if step == "0" {
					wantSelect = 0
					if n[SpanWrite] != 1 {
						t.Errorf("step 0 (always selected) has %d write phases, want 1", n[SpanWrite])
					}
				}
				if n[SpanSimulate] != 1 || n[SpanReduce] != 2+n[SpanWrite] || n[SpanStage] != 1 || n[SpanEncode] != n[SpanWrite] || n[SpanSelect] != wantSelect {
					t.Errorf("step %s trace phases %v, want simulate 1, reduce 2 and one per write, stage 1 and encode 1 per write under reduce, select %d",
						step, n, wantSelect)
				}
				writes += n[SpanWrite]
			}
			if writes != len(res.Selected) {
				t.Errorf("%d write phases across the step traces, want one per selected step (%d)", writes, len(res.Selected))
			}
		})
	}
}

// TestRunCountsBitvecActivity asserts a pipeline run moves the global
// bitvec counters: every step builds bitmap bins, so vectors_built and
// bits_appended must grow. (bitvec flushes into telemetry.Default, so this
// reads before/after deltas; package tests never run pipelines in
// parallel with this one.)
func TestRunCountsBitvecActivity(t *testing.T) {
	vectors := telemetry.Default.Counter("bitvec.vectors_built")
	bits := telemetry.Default.Counter("bitvec.bits_appended")
	v0, b0 := vectors.Value(), bits.Value()

	cfg := heatConfig(t, Bitmaps)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	dv, db := vectors.Value()-v0, bits.Value()-b0
	if dv <= 0 {
		t.Errorf("bitvec.vectors_built did not grow during a bitmap run (delta %d)", dv)
	}
	elems := int64(cfg.Sim.Elements())
	minBits := int64(cfg.Steps) * elems // at least one index' worth of bits per step
	if db < minBits {
		t.Errorf("bitvec.bits_appended grew by %d, want ≥ steps × elements = %d", db, minBits)
	}
}

// TestQueueBackpressure runs separate cores with a tiny queue and checks
// the watermark saturates: with a slow consumer the producer must hit the
// memory-capacity bound (depth cap+1 counts the blocked producer).
func TestQueueBackpressure(t *testing.T) {
	cfg := heatConfig(t, Bitmaps)
	const qcap = 1
	cfg.Strategy = SeparateCores{SimCores: 2, ReduceCores: 2, QueueCap: qcap}
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueuePeak < 1 || res.QueuePeak > qcap+1 {
		t.Errorf("queue peak %d outside [1, cap+1=%d]", res.QueuePeak, qcap+1)
	}
	if g := reg.Gauge("insitu.queue_depth"); g.Max() != int64(res.QueuePeak) {
		t.Errorf("gauge watermark %d != reported peak %d", g.Max(), res.QueuePeak)
	}
	if g := reg.Gauge("insitu.queue_depth"); g.Value() != 0 {
		t.Errorf("queue depth %d after the run, want 0 (drained)", g.Value())
	}
}

// TestRunPublishesStatus asserts the live-status provider the run registers
// under the "run" name (the payload /debug/run and `bitmapctl top` consume)
// reflects the finished run.
func TestRunPublishesStatus(t *testing.T) {
	cfg := heatConfig(t, Bitmaps)
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := reg.StatusValue(RunStatusName)
	if !ok {
		t.Fatalf("no %q status provider registered", RunStatusName)
	}
	st, ok := v.(RunStatus)
	if !ok {
		t.Fatalf("status value is %T, want RunStatus", v)
	}
	if !st.Done {
		t.Error("finished run not marked done")
	}
	if st.Workload != "heat3d" || st.Method != "bitmaps" || st.Strategy != "c_all" {
		t.Errorf("run identity: %+v", st)
	}
	if st.Steps != cfg.Steps || st.StepsDone != cfg.Steps || st.CurrentStep != cfg.Steps-1 {
		t.Errorf("progress: %d/%d current %d", st.StepsDone, st.Steps, st.CurrentStep)
	}
	if st.Selected != cfg.Select {
		t.Errorf("selected %d, want %d", st.Selected, cfg.Select)
	}
	if st.BytesWritten != res.BytesWritten {
		t.Errorf("bytes written %d != result %d", st.BytesWritten, res.BytesWritten)
	}
	var codecTotal int64
	for _, n := range st.CodecBins {
		codecTotal += n
	}
	if codecTotal == 0 {
		t.Errorf("no codec mix tallied: %+v", st.CodecBins)
	}
	if st.Phases[SpanSimulate].Count != int64(cfg.Steps) {
		t.Errorf("simulate phase count %d, want %d", st.Phases[SpanSimulate].Count, cfg.Steps)
	}
	if st.ElapsedNs <= 0 {
		t.Errorf("elapsed %d", st.ElapsedNs)
	}
}

// TestJournalTraceIDs asserts the crash-safety compatibility contract of
// trace stamping: with an identity recorder installed, score and select
// journal records link to the step traces that produced them; with tracing
// off, the field is absent from the journal bytes entirely, so traced and
// untraced runs of the same configuration stay journal-compatible.
func TestJournalTraceIDs(t *testing.T) {
	t.Run("enabled", func(t *testing.T) {
		telemetry.SetTraceRecorder(telemetry.NewTraceRecorder(telemetry.TraceConfig{Capacity: 64}))
		defer telemetry.SetTraceRecorder(nil)
		cfg := heatConfig(t, Bitmaps)
		cfg.OutputDir = t.TempDir()
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(cfg.OutputDir, JournalName))
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := ParseJournal(data)
		if err != nil {
			t.Fatal(err)
		}
		scored, selected := 0, 0
		for _, rec := range recs {
			switch rec.Kind {
			case KindScore:
				scored++
			case KindSelect:
				selected++
			default:
				continue
			}
			if len(rec.TraceID) != 32 {
				t.Errorf("%s record for step %d has trace_id %q, want 32-hex ID",
					rec.Kind, rec.Step, rec.TraceID)
			}
		}
		if scored == 0 || selected == 0 {
			t.Fatalf("journal has %d score / %d select records", scored, selected)
		}
	})
	t.Run("disabled", func(t *testing.T) {
		telemetry.SetTraceRecorder(nil)
		cfg := heatConfig(t, Bitmaps)
		cfg.OutputDir = t.TempDir()
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(cfg.OutputDir, JournalName))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(raw, []byte("trace_id")) {
			t.Error("untraced run wrote trace_id fields into the journal")
		}
	})
}

// TestRunRecordsNoQueries pins that time-step selection is not a query: a
// run with a slow-query log at threshold 0 and a workload log installed
// scores every step yet writes nothing to either. A step's score lives in
// the journal, its time in the select phase.
func TestRunRecordsNoQueries(t *testing.T) {
	var slow bytes.Buffer
	query.SetSlowLog(slog.New(slog.NewJSONHandler(&slow, nil)), 0)
	defer query.SetSlowLog(nil, 0)
	path := filepath.Join(t.TempDir(), "workload.isql")
	w, err := qlog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	qlog.Install(w)
	defer qlog.Install(nil)

	cfg := heatConfig(t, Bitmaps)
	cfg.OutputDir = t.TempDir()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	qlog.Install(nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := ReadRunLog(cfg.OutputDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Scores) != cfg.Steps-1 {
		t.Fatalf("journal holds %d scores, want %d", len(log.Scores), cfg.Steps-1)
	}
	if slow.Len() != 0 {
		t.Errorf("run wrote to the slow-query log:\n%s", slow.String())
	}
	recs, _, err := qlog.ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("run wrote %d workload-log records, first %+v", len(recs), recs[0])
	}
}
