package query

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"log/slog"

	"insitubits/internal/binning"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
	"insitubits/internal/index"
)

// explainTestData mixes long homogeneous value blocks (which compress into
// fills) with scattered noise (which forces literals), so every codec's
// encoding exercises both branches of the differential accounting below.
func explainTestData(n int) []float64 {
	data := make([]float64, n)
	for i := range data {
		switch {
		case i%127 == 0:
			data[i] = float64(i % 8) // scattered literals
		case (i/512)%3 == 0:
			data[i] = float64((i / 512) % 8) // long constant blocks
		default:
			data[i] = float64((i / 31) % 8)
		}
	}
	return data
}

func explainTestIndex(t *testing.T, id codec.ID) *index.Index {
	t.Helper()
	m, err := binning.NewUniform(0, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return index.BuildCodec(explainTestData(31*400), m, id)
}

// refScan recomputes scanCost by parsing the encoded payload directly, per
// the byte-level layouts in docs/FORMATS.md. It shares no code with the
// production Stats walkers, which is what makes the comparison differential.
func refScan(t *testing.T, bm bitvec.Bitmap) Cost {
	t.Helper()
	switch v := bm.(type) {
	case *bitvec.Vector:
		var c Cost
		words := v.RawWords()
		c.WordsScanned = int64(len(words))
		c.BytesDecoded = int64(4 * len(words))
		for _, w := range words {
			if w&(1<<31) != 0 {
				c.FillWords++
				c.FillSegments += int64(w & (1<<30 - 1))
			} else {
				c.LiteralWords++
			}
		}
		return c
	case *bitvec.BBC:
		data := v.RawBytes()
		c := Cost{
			WordsScanned: int64((len(data) + 3) / 4),
			BytesDecoded: int64(len(data)),
		}
		runBytes := 0
		for i := 0; i < len(data); {
			tok := data[i]
			i++
			switch tok {
			case 0x80, 0x81: // zero/one run + uvarint byte count
				n, k := binary.Uvarint(data[i:])
				if k <= 0 {
					t.Fatalf("malformed BBC run count at byte %d", i)
				}
				i += k
				c.FillWords++
				runBytes += int(n)
			default: // literal chunk: tok+1 payload bytes
				c.LiteralWords += int64(tok) + 1
				i += int(tok) + 1
			}
		}
		c.FillSegments = int64(runBytes * 8 / bitvec.SegmentBits)
		return c
	}
	t.Fatalf("unknown bitmap type %T", bm)
	return Cost{}
}

func scanFields(c Cost) [5]int64 {
	return [5]int64{c.WordsScanned, c.FillWords, c.FillSegments, c.LiteralWords, c.BytesDecoded}
}

// TestAnalyzeMatchesEncodedComposition is the tentpole differential test:
// for every codec, the per-bin costs an ANALYZE profile reports must equal
// the composition obtained by independently parsing each bin's encoded
// payload byte-for-byte.
func TestAnalyzeMatchesEncodedComposition(t *testing.T) {
	for _, id := range []codec.ID{codec.WAH, codec.BBC} {
		t.Run(id.String(), func(t *testing.T) {
			x := explainTestIndex(t, id)
			// Spatial restriction forces the bitmap-scanning count path.
			s := Subset{ValueLo: 0, ValueHi: 8, SpatialLo: 0, SpatialHi: x.N()}
			got, p, err := CountAnalyze(context.Background(), x, s)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Count(context.Background(), x, s)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("CountAnalyze = %d, plain Count = %d", got, want)
			}
			scans := 0
			for _, n := range p.Root.Children {
				if n.Op != "count-range" {
					continue
				}
				scans++
				if n.Bin < 0 || n.Bin >= x.Bins() {
					t.Fatalf("count-range node with bin %d", n.Bin)
				}
				ref := refScan(t, x.Bitmap(n.Bin))
				if scanFields(n.Cost) != scanFields(ref) {
					t.Errorf("bin %d (%s): profile cost %+v != payload-parsed %+v",
						n.Bin, n.Codec, n.Cost, ref)
				}
				if n.Codec != id.String() {
					t.Errorf("bin %d codec label %q, want %q", n.Bin, n.Codec, id)
				}
			}
			if scans != x.Bins() {
				t.Errorf("profiled %d bin scans, want %d", scans, x.Bins())
			}

			// Same differential check on the OR-merge operands of Bits.
			_, bp, err := BitsAnalyze(context.Background(), x, Subset{ValueLo: 2, ValueHi: 6})
			if err != nil {
				t.Fatal(err)
			}
			merged := 0
			for _, n := range bp.Root.Children {
				if n.Op != "or-merge" {
					continue
				}
				for _, c := range n.Children {
					if c.Op != "or" {
						continue
					}
					merged++
					ref := refScan(t, x.Bitmap(c.Bin))
					if scanFields(c.Cost) != scanFields(ref) {
						t.Errorf("or operand bin %d: cost %+v != payload-parsed %+v",
							c.Bin, c.Cost, ref)
					}
				}
			}
			if merged != 4 {
				t.Errorf("or-merge touched %d bins, want 4 (bins 2..5)", merged)
			}
		})
	}
}

// TestAnalyzeMatchesPlainResults checks the other half of the execution
// contract: the Analyze variants return byte-identical results to the plain
// entry points, across codecs and subset shapes.
func TestAnalyzeMatchesPlainResults(t *testing.T) {
	subsets := []Subset{
		{ValueLo: 1, ValueHi: 5},
		{SpatialLo: 100, SpatialHi: 9000},
		{ValueLo: 0, ValueHi: 7, SpatialLo: 31, SpatialHi: 11000},
	}
	for _, id := range []codec.ID{codec.WAH, codec.BBC} {
		x := explainTestIndex(t, id)
		for _, s := range subsets {
			name := id.String() + "/" + s.describe()
			c1, err1 := Count(context.Background(), x, s)
			c2, p, err2 := CountAnalyze(context.Background(), x, s)
			if err1 != nil || err2 != nil || c1 != c2 {
				t.Fatalf("%s: count %d/%v vs analyze %d/%v", name, c1, err1, c2, err2)
			}
			if p == nil || p.Mode != ModeAnalyze || p.ElapsedNs <= 0 {
				t.Fatalf("%s: malformed profile %+v", name, p)
			}
			a1, _ := Sum(context.Background(), x, s)
			a2, _, _ := SumAnalyze(context.Background(), x, s)
			if a1 != a2 {
				t.Errorf("%s: sum %+v != analyzed %+v", name, a1, a2)
			}
			m1, _ := Mean(context.Background(), x, s)
			m2, _, _ := Analyze(context.Background(), Request{Op: OpMean, A: s}, x, nil)
			if m1 != m2.Agg {
				t.Errorf("%s: mean %+v != analyzed %+v", name, m1, m2.Agg)
			}
			q1, _ := Quantile(context.Background(), x, s, 0.5)
			q2, _, _ := QuantileAnalyze(context.Background(), x, s, 0.5)
			if q1 != q2 {
				t.Errorf("%s: quantile %+v != analyzed %+v", name, q1, q2)
			}
			lo1, hi1, _ := MinMax(context.Background(), x, s)
			lo2, hi2, _, _ := MinMaxAnalyze(context.Background(), x, s)
			if lo1 != lo2 || hi1 != hi2 {
				t.Errorf("%s: minmax (%+v,%+v) != analyzed (%+v,%+v)", name, lo1, hi1, lo2, hi2)
			}
			v1, _ := Bits(context.Background(), x, s)
			v2, _, _ := BitsAnalyze(context.Background(), x, s)
			if v1.Count() != v2.Count() || !bitvec.ToVector(v1).Equal(v2) {
				t.Errorf("%s: bits differ between plain and analyze", name)
			}
		}
		sb := Subset{ValueLo: 2, ValueHi: 7}
		pr1, err1 := Correlation(context.Background(), x, x, subsets[0], sb)
		pr2, p, err2 := CorrelationAnalyze(context.Background(), x, x, subsets[0], sb)
		if err1 != nil || err2 != nil || pr1 != pr2 {
			t.Fatalf("%s: correlation %+v/%v vs analyze %+v/%v", id, pr1, err1, pr2, err2)
		}
		if p.Total().WordsScanned == 0 {
			t.Errorf("%s: correlation profile charged no words", id)
		}
	}
}

// TestExplainWithinFactorOfAnalyze pins the estimator's accuracy: on the
// scan-cost figures (words, bytes), EXPLAIN must land within 4x of what
// ANALYZE measures, in both directions.
func TestExplainWithinFactorOfAnalyze(t *testing.T) {
	const factor = 4.0
	within := func(est, act int64) bool {
		if act == 0 {
			return est == 0
		}
		r := float64(est) / float64(act)
		return r >= 1/factor && r <= factor
	}
	for _, id := range []codec.ID{codec.WAH, codec.BBC} {
		x := explainTestIndex(t, id)
		s := Subset{ValueLo: 1, ValueHi: 6, SpatialLo: 0, SpatialHi: x.N()}
		for _, op := range []Op{OpBits, OpCount, OpSum, OpMean, OpQuantile, OpMinMax} {
			est, err := Explain(x, s, op)
			if err != nil {
				t.Fatal(err)
			}
			if est.Mode != ModeExplain || est.ElapsedNs != 0 {
				t.Fatalf("%s/%s: EXPLAIN executed something: %+v", id, op, est)
			}
			var prof *Profile
			switch op {
			case OpBits:
				_, prof, err = BitsAnalyze(context.Background(), x, s)
			case OpCount:
				_, prof, err = CountAnalyze(context.Background(), x, s)
			case OpSum:
				_, prof, err = SumAnalyze(context.Background(), x, s)
			case OpMean:
				_, prof, err = Analyze(context.Background(), Request{Op: OpMean, A: s}, x, nil)
			case OpQuantile:
				_, prof, err = QuantileAnalyze(context.Background(), x, s, 0.5)
			case OpMinMax:
				_, _, prof, err = MinMaxAnalyze(context.Background(), x, s)
			}
			if err != nil {
				t.Fatal(err)
			}
			et, at := est.Total(), prof.Total()
			if !within(et.WordsScanned, at.WordsScanned) {
				t.Errorf("%s/%s: estimated %d words vs measured %d (beyond %gx)",
					id, op, et.WordsScanned, at.WordsScanned, factor)
			}
			if !within(et.BytesDecoded, at.BytesDecoded) {
				t.Errorf("%s/%s: estimated %d bytes vs measured %d (beyond %gx)",
					id, op, et.BytesDecoded, at.BytesDecoded, factor)
			}
			if at.WordsScanned == 0 {
				t.Errorf("%s/%s: spatially-restricted ANALYZE scanned no words", id, op)
			}
		}
	}
}

func TestExplainCorrelationEstimates(t *testing.T) {
	x := explainTestIndex(t, codec.Auto)
	est, err := ExplainCorrelation(x, x, Subset{ValueLo: 1, ValueHi: 6}, Subset{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Mode != ModeExplain {
		t.Fatalf("mode = %q", est.Mode)
	}
	_, prof, err := CorrelationAnalyze(context.Background(), x, x, Subset{ValueLo: 1, ValueHi: 6}, Subset{})
	if err != nil {
		t.Fatal(err)
	}
	et, at := est.Total(), prof.Total()
	if et.WordsScanned == 0 || at.WordsScanned == 0 {
		t.Fatalf("empty totals: est %+v act %+v", et, at)
	}
	// Both sides charge the selected occupied bins (mask plan and id decode)
	// and the flat passes from the same per-bin sizes: without a cache or an
	// early empty intermediate the estimate is what runs.
	if et.WordsScanned != at.WordsScanned || et.BinsTouched != at.BinsTouched {
		t.Errorf("correlation estimate %d words over %d bins, measured %d over %d",
			et.WordsScanned, et.BinsTouched, at.WordsScanned, at.BinsTouched)
	}
}

// TestSlowQueryLog checks the routing contract: with a slow-log installed,
// plain entry points self-profile and emit the full profile JSON for
// queries over the threshold; below the threshold (or with the log
// disabled) they stay silent.
func TestSlowQueryLog(t *testing.T) {
	x := explainTestIndex(t, codec.Auto)
	s := Subset{ValueLo: 0, ValueHi: 8, SpatialLo: 0, SpatialHi: x.N()}

	var buf bytes.Buffer
	SetSlowLog(slog.New(slog.NewJSONHandler(&buf, nil)), 0)
	defer SetSlowLog(nil, 0)
	if _, err := Count(context.Background(), x, s); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("threshold 0 logged nothing")
	}
	var entry struct {
		Msg     string `json:"msg"`
		Query   string `json:"query"`
		Profile struct {
			Mode string `json:"mode"`
			Plan *Node  `json:"plan"`
		} `json:"profile"`
	}
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &entry); err != nil {
		t.Fatalf("slow-log line is not JSON: %v\n%s", err, line)
	}
	if entry.Msg != "slow query" || entry.Query != "count" {
		t.Errorf("unexpected log entry %+v", entry)
	}
	if entry.Profile.Mode != string(ModeAnalyze) || entry.Profile.Plan == nil ||
		len(entry.Profile.Plan.Children) == 0 {
		t.Errorf("embedded profile incomplete: %s", line)
	}

	buf.Reset()
	SetSlowLog(slog.New(slog.NewJSONHandler(&buf, nil)), time.Hour)
	if _, err := Count(context.Background(), x, s); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("sub-threshold query logged: %s", buf.String())
	}

	buf.Reset()
	SetSlowLog(nil, 0)
	if _, err := Count(context.Background(), x, s); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("disabled slow log still wrote: %s", buf.String())
	}
}
