package main

import (
	"math/rand"

	"insitubits/internal/binning"
	"insitubits/internal/query"
	"insitubits/internal/serve"
	"insitubits/internal/sim/ocean"
)

// sizes holds every size constant of the four workloads; it is echoed in the
// report. quickSizes are toy values for smoke tests, whose numbers are
// discarded.
type sizes struct {
	HeatDim, HeatSteps, HeatSelect, HeatBins         int
	LuleshDim, LuleshSteps, LuleshSelect, LuleshBins int
	OceanLon, OceanLat, OceanDepth, OceanBins        int
	OceanSeed                                        int64 // the ocean dataset is a fixture, see genOcean
	MineUnit                                         int
	MineT, MineTPrime                                float64
	BatchQueries                                     int
	CacheMB, SmallCacheMB                            int
	HotSet                                           int
	ServeClients                                     int
	OpenRate                                         int     // req/s of the open-loop phase
	OpenSeconds, WarmupSeconds                       float64 // serve phases outside the timed loop
	MinReps                                          int     // least timed repetitions of any phase
	SetupRounds                                      int     // set-ups per run; setup_s is their median
}

var fullSizes = sizes{
	HeatDim: 128, HeatSteps: 40, HeatSelect: 10, HeatBins: 160,
	LuleshDim: 48, LuleshSteps: 40, LuleshSelect: 10, LuleshBins: 120,
	OceanLon: 256, OceanLat: 256, OceanDepth: 16, OceanBins: 48, OceanSeed: 1,
	MineUnit: 512, MineT: 0.002, MineTPrime: 0.05,
	BatchQueries: 200, CacheMB: 64, SmallCacheMB: 8,
	HotSet: 32, ServeClients: benchCores,
	OpenRate: 1000, OpenSeconds: 5, WarmupSeconds: 1,
	MinReps: 3, SetupRounds: 3,
}

var quickSizes = sizes{
	HeatDim: 16, HeatSteps: 8, HeatSelect: 3, HeatBins: 32,
	LuleshDim: 8, LuleshSteps: 8, LuleshSelect: 3, LuleshBins: 24,
	OceanLon: 32, OceanLat: 32, OceanDepth: 4, OceanBins: 16, OceanSeed: 1,
	MineUnit: 64, MineT: 0.002, MineTPrime: 0.05,
	BatchQueries: 24, CacheMB: 64, SmallCacheMB: 1,
	HotSet: 8, ServeClients: benchCores,
	OpenRate: 200, OpenSeconds: 0.3, WarmupSeconds: 0.1,
	MinReps: 1, SetupRounds: 1,
}

// Seed streams: each generator draws from its own stream so adding a draw
// to one never shifts another.
const (
	streamBatch = 1 + iota
	streamHot
	streamClient // + client index
)

func rngFor(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// oceanVars are the two variables every ocean workload indexes.
var oceanVars = [2]string{"temperature", "salinity"}

// oceanData is the dataset of offline_ocean and serve_light: two variables
// in Z-curve order with their uniform binnings.
type oceanData struct {
	raw     [2][]float64
	mappers [2]binning.Mapper
	ranges  [2][2]float64
}

// genOcean generates the ocean from sizes.OceanSeed, not from the run's
// seed: the dataset is a fixture and the seed drives the traffic on it (query
// batch, hot set, request streams). Bytes stored are then exact on every
// workload, so stored_bytes_ratio can carry a 1 % bound; with seeded data the
// files' size moved 2 % from seed to seed and hid any smaller change.
func genOcean(sz sizes) (*oceanData, error) {
	d, err := ocean.Generate(sz.OceanLon, sz.OceanLat, sz.OceanDepth, sz.OceanSeed)
	if err != nil {
		return nil, err
	}
	od := &oceanData{}
	for i, name := range oceanVars {
		if od.raw[i], err = d.VarCurveOrder(name); err != nil {
			return nil, err
		}
		lo, hi := binning.MinMax(od.raw[i])
		// The top edge is nudged up so the maximum falls inside the last bin.
		hi += (hi - lo) * 1e-9
		if od.mappers[i], err = binning.NewUniform(lo, hi, sz.OceanBins); err != nil {
			return nil, err
		}
		od.ranges[i] = [2]float64{lo, hi}
	}
	return od, nil
}

// batchQuery is one query of the offline batch. B is the second operand's
// subset for a correlation; Q the quantile argument.
type batchQuery struct {
	Op string
	A  query.Subset
	B  query.Subset
	Q  float64
}

// valueRange places an interval of the given width (a share of the
// variable's range) at position u in [0,1) of the room left for it.
func valueRange(r [2]float64, width, u float64) (lo, hi float64) {
	span := r[1] - r[0]
	w := width * span
	lo = r[0] + u*(span-w)
	return lo, lo + w
}

// batchMix is the offline batch's op mix, in shares of the batch.
var batchMix = []struct {
	op    string
	share float64
}{{"bits", 0.30}, {"correlation", 0.30}, {"count", 0.10}, {"sum", 0.10}, {"quantile", 0.10}, {"minmax", 0.10}}

// genBatch draws the heavy offline batch: 30 % bits, 30 % correlation,
// 10 % each count/sum/quantile/minmax; value widths 5-50 % of the range;
// half the queries carry a quarter-length spatial range (a correlation
// carries the same one on both operands, as the query layer requires).
//
// The batch is stratified so that its cost depends on the seed as little as
// possible: the counts per op are exact, each op's queries step through the
// widths evenly, each width is used once with and once without a spatial
// range, and the positions of the value and spatial ranges are one draw per
// stratum (a Latin hypercube). The seed decides the positions within the
// strata, which stratum meets which width, and the order of the batch.
func genBatch(sz sizes, seed int64, od *oceanData) []batchQuery {
	rng := rngFor(seed, streamBatch)
	n := len(od.raw[0])
	out := make([]batchQuery, 0, sz.BatchQueries)
	for _, mix := range batchMix {
		k := int(mix.share*float64(sz.BatchQueries) + 0.5)
		// strata returns one draw from each of k equal strata of [0,1), in
		// random order.
		strata := func() []float64 {
			u := make([]float64, k)
			for i, p := range rng.Perm(k) {
				u[i] = (float64(p) + rng.Float64()) / float64(k)
			}
			return u
		}
		posA, posB, posS, quant, widthB := strata(), strata(), strata(), strata(), strata()
		for j := 0; j < k; j++ {
			q := batchQuery{Op: mix.op}
			widthA := 0.05 + 0.45*(float64(j/2)+0.5)/float64((k+1)/2)
			q.A.ValueLo, q.A.ValueHi = valueRange(od.ranges[0], widthA, posA[j])
			if j%2 == 0 {
				at := int(posS[j] * float64(n-n/4+1))
				q.A.SpatialLo, q.A.SpatialHi = at, at+n/4
			}
			switch mix.op {
			case "correlation":
				q.B.ValueLo, q.B.ValueHi = valueRange(od.ranges[1], 0.05+0.45*widthB[j], posB[j])
				q.B.SpatialLo, q.B.SpatialHi = q.A.SpatialLo, q.A.SpatialHi
			case "quantile":
				q.Q = quant[j]
			}
			out = append(out, q)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// lightOps is the serve_light mix: count 35 %, sum 20 %, mean 15 %,
// quantile 20 %, minmax 10 %. Heavy ops are excluded on purpose (README).
func lightOp(rng *rand.Rand) string {
	switch r := rng.Float64(); {
	case r < 0.35:
		return "count"
	case r < 0.55:
		return "sum"
	case r < 0.70:
		return "mean"
	case r < 0.90:
		return "quantile"
	default:
		return "minmax"
	}
}

// genRequest draws one light request over a random variable.
func genRequest(rng *rand.Rand, od *oceanData) serve.QueryRequest {
	v := rng.Intn(len(oceanVars))
	req := serve.QueryRequest{Op: lightOp(rng), Var: oceanVars[v]}
	req.ValueLo, req.ValueHi = valueRange(od.ranges[v], 0.05+0.45*rng.Float64(), rng.Float64())
	if req.Op == "quantile" {
		req.Q = rng.Float64()
	}
	return req
}

// genHotSet draws the requests that repeat.
func genHotSet(sz sizes, seed int64, od *oceanData) []serve.QueryRequest {
	rng := rngFor(seed, streamHot)
	out := make([]serve.QueryRequest, sz.HotSet)
	for i := range out {
		out[i] = genRequest(rng, od)
	}
	return out
}

// requestStream is one client's endless request sequence: half the
// requests come from the hot set, half are fresh draws that never repeat.
type requestStream struct {
	rng *rand.Rand
	od  *oceanData
	hot []serve.QueryRequest
}

func newRequestStream(seed int64, client int, od *oceanData, hot []serve.QueryRequest) *requestStream {
	return &requestStream{rng: rngFor(seed, streamClient+client), od: od, hot: hot}
}

// next returns the next request and whether it came from the hot set.
func (s *requestStream) next() (serve.QueryRequest, bool) {
	if s.rng.Intn(2) == 0 {
		return s.hot[s.rng.Intn(len(s.hot))], true
	}
	return genRequest(s.rng, s.od), false
}
