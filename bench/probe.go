package main

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"insitubits/internal/binning"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/metrics"
	"insitubits/internal/store"
)

// probeInput is a workload's own data, handed to the layer probes: one raw
// array with its binning, a pair of indexes the workload really combines
// (two kept steps of one variable; temperature and salinity), and every
// index the workload stores.
type probeInput struct {
	raw    []float64
	mapper binning.Mapper
	pair   [2]*index.Index
	stored []*index.Index
	dir    string // scratch for the store probe
}

// probeReps is how many times each probe repeats; the median is reported.
const probeReps = 5

// medianOf times fn reps times and returns the median in nanoseconds.
func medianOf(reps int, fn func()) float64 {
	ns := make([]float64, reps)
	for i := range ns {
		t := time.Now()
		fn()
		ns[i] = float64(time.Since(t).Nanoseconds())
	}
	return median(ns)
}

var sink int // keeps probe results alive

// probeLayers measures the index, codec, bitvec, metrics and store layers
// directly, on the workload's real data rather than synthetic densities.
// These calls are sequential and alone on the machine: they price a layer,
// they are not a share of any end-to-end time.
func probeLayers(in probeInput, out map[string]sample) error {
	n := len(in.raw)
	put := func(name string, v float64, unit string, reps int) { out[name] = sample{v, unit, reps} }

	// index + codec: rebuild the first array the way the pipeline does.
	var built *index.Index
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	buildNs := medianOf(probeReps, func() { built = index.BuildParallel(in.raw, in.mapper, benchCores) })
	runtime.ReadMemStats(&ms)
	put("index.build_ms", buildNs/1e6, "ms", probeReps)
	put("index.build_melem_per_s", float64(n)/1e6/(buildNs/1e9), "Melem/s", probeReps)
	put("index.alloc_mb_per_build", float64(ms.TotalAlloc-alloc0)/probeReps/(1<<20), "MB", probeReps)
	recodeNs := make([]float64, probeReps)
	for i := range recodeNs {
		x := index.BuildParallel(in.raw, in.mapper, benchCores)
		t := time.Now()
		built = x.Recode(codec.Auto)
		recodeNs[i] = float64(time.Since(t).Nanoseconds())
	}
	put("codec.recode_ms", median(recodeNs)/1e6, "ms", probeReps)
	put("index.bytes_per_elem", float64(built.SizeBytes())/float64(n), "B/elem", 1)

	bins := map[codec.ID]int{}
	words := 0
	for _, x := range in.stored {
		for b := 0; b < x.Bins(); b++ {
			bins[x.Codec(b)]++
			words += x.Bitmap(b).Words()
		}
	}
	put("codec.bins_wah", float64(bins[codec.WAH]), "count", 1)
	put("codec.bins_bbc", float64(bins[codec.BBC]), "count", 1)
	put("codec.bins_dense", float64(bins[codec.Dense]), "count", 1)
	put("bitvec.words_total", float64(words), "count", 1)

	// bitvec kernels over the pair's real bin bitmaps: bin b of one index
	// against bins b and b+1 of the other.
	xa, xb := in.pair[0], in.pair[1]
	type operands struct{ a, b bitvec.Bitmap }
	var ops []operands
	pairWords := 0
	for b := 0; b < xa.Bins(); b++ {
		for off := 0; off < 2; off++ {
			o := operands{xa.Bitmap(b), xb.Bitmap((b + off) % xb.Bins())}
			ops = append(ops, o)
			pairWords += o.a.Words() + o.b.Words()
		}
	}
	binary := func(name string, fn func(a, b bitvec.Bitmap) int) {
		ns := medianOf(probeReps, func() {
			for _, o := range ops {
				sink += fn(o.a, o.b)
			}
		})
		put(name, ns/float64(pairWords), "ns/word", probeReps)
	}
	binary("bitvec.and_ns_per_word", func(a, b bitvec.Bitmap) int { return a.And(b).Len() })
	binary("bitvec.andcount_ns_per_word", func(a, b bitvec.Bitmap) int { return a.AndCount(b) })
	binary("bitvec.or_ns_per_word", func(a, b bitvec.Bitmap) int { return a.Or(b).Len() })
	binary("bitvec.xorcount_ns_per_word", func(a, b bitvec.Bitmap) int { return a.XorCount(b) })

	ownWords := 0
	for b := 0; b < xa.Bins(); b++ {
		ownWords += xa.Bitmap(b).Words()
	}
	unary := func(name string, per float64, unit string, fn func(v bitvec.Bitmap) int) {
		ns := medianOf(probeReps, func() {
			for b := 0; b < xa.Bins(); b++ {
				sink += fn(xa.Bitmap(b))
			}
		})
		put(name, ns/per, unit, probeReps)
	}
	unit := 512
	if unit > n {
		unit = n
	}
	unary("bitvec.countunits_ns_per_word", float64(ownWords), "ns/word", func(v bitvec.Bitmap) int { return len(v.CountUnits(unit)) })
	unary("bitvec.countrange_ns_per_word", float64(ownWords), "ns/word", func(v bitvec.Bitmap) int { return v.CountRange(n/4, n/2) })
	unary("bitvec.append_ns_per_elem", float64(xa.Bins())*float64(n), "ns/elem", func(v bitvec.Bitmap) int {
		var ap bitvec.Appender
		r := v.Runs()
		for run, ok := r.NextRun(); ok; run, ok = r.NextRun() {
			if run.Fill {
				ap.AppendFill(run.Bit, run.N)
			} else {
				ap.AppendSegment(run.Word)
			}
		}
		return ap.Len()
	})

	// metrics: the two selection kernels on the same pair.
	put("metrics.joint_hist_ms", medianOf(probeReps, func() { sink += len(metrics.JointHistogramBitmaps(xa, xb)) })/1e6, "ms", probeReps)
	if xa.Bins() == xb.Bins() {
		put("metrics.emd_spatial_ms", medianOf(probeReps, func() { sink += int(metrics.EMDSpatialBitmaps(xa, xb)) })/1e6, "ms", probeReps)
	}

	// store: one durable write (temp, fsync, rename, dir fsync) and one read.
	path := filepath.Join(in.dir, "probe.isbm")
	var size int64
	var err error
	writeNs := medianOf(probeReps, func() {
		if err == nil {
			size, _, err = store.AtomicWrite(nil, path, func(w io.Writer) (int64, error) { return store.WriteIndex(w, xa) })
		}
	})
	if err != nil {
		return err
	}
	readNs := medianOf(probeReps, func() {
		if err == nil {
			_, err = loadIndex(path)
		}
	})
	if err != nil {
		return err
	}
	mb := float64(size) / 1e6
	put("store.write_ms", writeNs/1e6, "ms", probeReps)
	put("store.write_mb_per_s", mb/(writeNs/1e9), "MB/s", probeReps)
	put("store.read_ms", readNs/1e6, "ms", probeReps)
	put("store.read_mb_per_s", mb/(readNs/1e9), "MB/s", probeReps)
	return os.Remove(path)
}

// loadIndex opens and fully parses one .isbm file.
func loadIndex(path string) (*index.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return store.ReadIndex(f)
}
