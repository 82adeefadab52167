package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// generatedInputs serialises every generated input: the ocean arrays (a
// fixture), and what the seed determines — the query batch, the hot set and
// each client's request stream.
func generatedInputs(t *testing.T, seed int64) []byte {
	t.Helper()
	sz := quickSizes
	od, err := genOcean(sz)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, raw := range od.raw {
		for _, v := range raw {
			binary.Write(&buf, binary.LittleEndian, math.Float64bits(v))
		}
	}
	hot := genHotSet(sz, seed, od)
	enc := json.NewEncoder(&buf)
	for _, v := range []any{od.ranges, genBatch(sz, seed, od), hot} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	for client := 0; client < sz.ServeClients; client++ {
		stream := newRequestStream(seed, client, od, hot)
		for i := 0; i < 200; i++ {
			req, isHot := stream.next()
			if err := enc.Encode(struct {
				Req any
				Hot bool
			}{req, isHot}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := generatedInputs(t, 1), generatedInputs(t, 1), generatedInputs(t, 2)
	if !bytes.Equal(a, b) {
		t.Error("the same seed generated different inputs")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds generated identical inputs")
	}
}

func TestBatchShape(t *testing.T) {
	sz := fullSizes
	sz.OceanLon, sz.OceanLat, sz.OceanDepth = 16, 16, 4 // the mix, not the data, is under test
	od, err := genOcean(sz)
	if err != nil {
		t.Fatal(err)
	}
	n := len(od.raw[0])
	mix := map[string]int{}
	spatial := 0
	for _, q := range genBatch(sz, 7, od) {
		mix[q.Op]++
		w := (q.A.ValueHi - q.A.ValueLo) / (od.ranges[0][1] - od.ranges[0][0])
		if w < 0.05-1e-9 || w > 0.50+1e-9 {
			t.Errorf("%s: value width %.3f of the range, want 5-50%%", q.Op, w)
		}
		if q.A.SpatialHi > q.A.SpatialLo {
			spatial++
			if q.A.SpatialHi-q.A.SpatialLo != n/4 || q.A.SpatialHi > n {
				t.Errorf("%s: spatial range [%d,%d) is not a quarter of %d", q.Op, q.A.SpatialLo, q.A.SpatialHi, n)
			}
		}
		if q.Op == "correlation" && (q.A.SpatialLo != q.B.SpatialLo || q.A.SpatialHi != q.B.SpatialHi) {
			t.Errorf("correlation operands carry different spatial ranges: %+v vs %+v", q.A, q.B)
		}
	}
	for op, want := range map[string]int{"bits": 60, "correlation": 60, "count": 20, "sum": 20, "quantile": 20, "minmax": 20} {
		if mix[op] != want {
			t.Errorf("%d %s queries in the batch, want %d", mix[op], op, want)
		}
	}
	if spatial != sz.BatchQueries/2 {
		t.Errorf("%d queries carry a spatial range, want half of %d", spatial, sz.BatchQueries)
	}
}

func TestRequestStreamHalfHot(t *testing.T) {
	od, err := genOcean(quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	hot := genHotSet(quickSizes, 3, od)
	stream := newRequestStream(3, 0, od, hot)
	seen := map[string]int{}
	hits := 0
	const n = 4000
	for i := 0; i < n; i++ {
		req, isHot := stream.next()
		key, _ := json.Marshal(req)
		if isHot {
			hits++
		} else if seen[string(key)]++; seen[string(key)] > 1 {
			t.Fatalf("unique request repeated: %s", key)
		}
		switch req.Op {
		case "count", "sum", "mean", "quantile", "minmax":
		default:
			t.Fatalf("op %q is not in the light mix", req.Op)
		}
	}
	if share := float64(hits) / n; math.Abs(share-0.5) > 0.05 {
		t.Errorf("%.1f%% of requests came from the hot set, want half", 100*share)
	}
}
