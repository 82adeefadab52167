package query

import (
	"context"
	"runtime"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/bitcache"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/metrics"
	"insitubits/internal/sim/ocean"
)

// oceanPair indexes the benchmark's ocean (256×256×16 cells in unit tiles:
// Z order between 8³ tiles, row order inside them; 48 uniform bins,
// adaptive codec): temperature and salinity.
func oceanPair(b *testing.B) (xs [2]*index.Index, ranges [2][2]float64) {
	b.Helper()
	d, err := ocean.Generate(256, 256, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i, name := range []string{"temperature", "salinity"} {
		raw, err := d.VarCurveOrder(name)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := binning.MinMax(raw)
		hi += (hi - lo) * 1e-9
		m, err := binning.NewUniform(lo, hi, 48)
		if err != nil {
			b.Fatal(err)
		}
		xs[i], ranges[i] = index.BuildParallelCodec(raw, m, 1, codec.Auto), [2]float64{lo, hi}
	}
	return xs, ranges
}

var (
	sinkPair metrics.Pair
	sinkBits bitvec.Bitmap
)

// valueWindow is the value range of relative width w of r, its start u of
// the way through the rest: BenchmarkCorrelation's and BenchmarkBits' windows.
func valueWindow(r [2]float64, w, u float64) (lo, hi float64) {
	span := r[1] - r[0]
	lo = r[0] + u*(span-w*span)
	return lo, lo + w*span
}

// BenchmarkBits is the offline batch's value OR on its own: temperature's
// six value windows of BenchmarkCorrelation (widths 10–45 % of its range)
// and salinity's six complementary ones (widths 40–5 %), each over the
// whole domain or a quarter-length spatial range, with no cache — every
// OR reads the side its index chose and is encoded once.
func BenchmarkBits(b *testing.B) {
	xs, ranges := oceanPair(b)
	n := xs[0].N()
	for _, shape := range []string{"whole", "quarter"} {
		type job struct {
			x *index.Index
			s Subset
		}
		var jobs []job
		for i, width := range []float64{0.10, 0.275, 0.45} {
			for j, u := range []float64{0.2, 0.6} {
				var sa, sb Subset
				sa.ValueLo, sa.ValueHi = valueWindow(ranges[0], width, u)
				sb.ValueLo, sb.ValueHi = valueWindow(ranges[1], 0.5-width, 1-u)
				if shape == "quarter" {
					at := (2*i + j) * n / 8
					sa.SpatialLo, sa.SpatialHi = at, at+n/4
					sb.SpatialLo, sb.SpatialHi = at, at+n/4
				}
				jobs = append(jobs, job{xs[0], sa}, job{xs[1], sb})
			}
		}
		ctx := WithCache(context.Background(), nil)
		b.Run(shape, func(b *testing.B) {
			pass := func() {
				for _, j := range jobs {
					v, err := Bits(ctx, j.x, j.s)
					if err != nil {
						b.Fatal(err)
					}
					sinkBits = v
				}
			}
			pass() // builds the groups, grows the scratch pools
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
		})
	}
}

// BenchmarkCorrelation is the offline batch's heavy operator on its own
// data: six value windows per iteration (widths 10–45 % of each variable's
// range), over the whole domain or a quarter-length spatial range, with no
// cache (every mask is planned and computed) and on a warm one (the mask is
// a cached bitmap; the decode and the tally are what remains). Each runs
// its passes on one worker (GOMAXPROCS 1), split over GOMAXPROCS workers
// (the executor's choice), and cut into windows of parGrain words, the
// finest split the executor makes: what a window costs beyond its work.
func BenchmarkCorrelation(b *testing.B) {
	xs, ranges := oceanPair(b)
	n := xs[0].N()
	for _, cache := range []string{"cold", "warm"} {
		for _, shape := range []string{"spatial", "whole"} {
			var reqs []Request
			for i, width := range []float64{0.10, 0.275, 0.45} {
				for j, u := range []float64{0.2, 0.6} {
					var sa, sb Subset
					sa.ValueLo, sa.ValueHi = valueWindow(ranges[0], width, u)
					sb.ValueLo, sb.ValueHi = valueWindow(ranges[1], 0.5-width, 1-u)
					if shape == "spatial" {
						at := (2*i + j) * n / 8
						sa.SpatialLo, sa.SpatialHi = at, at+n/4
						sb.SpatialLo, sb.SpatialHi = at, at+n/4
					}
					reqs = append(reqs, Request{Op: OpCorrelation, A: sa, B: sb})
				}
			}
			ctx := WithCache(context.Background(), nil)
			if cache == "warm" {
				ctx = WithCache(context.Background(), bitcache.New(64<<20))
			}
			pass := func() {
				for _, req := range reqs {
					ans, err := Run(ctx, req, xs[0], xs[1])
					if err != nil {
						b.Fatal(err)
					}
					sinkPair = ans.Pair
				}
			}
			for _, split := range []struct {
				name          string
				procs, window int
			}{{"procs=1", 1, 0}, {"procs=max", 0, 0}, {"window=grain", 0, parGrain}} {
				b.Run(cache+"/"+shape+"/"+split.name, func(b *testing.B) {
					if split.procs > 0 {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(split.procs))
					}
					testHookWindow = split.window
					defer func() { testHookWindow = 0 }()
					pass() // fills the cache, grows the scratch pools
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						pass()
					}
				})
			}
		}
	}
}
