// Command bitmapctl builds, inspects and queries bitmap index files (the
// .isbm format written by the in-situ pipeline).
//
//	bitmapctl build -in data.israw -out index.isbm [-bins N] [-codec auto|wah|bbc]
//	bitmapctl info  index.isbm
//	bitmapctl stat  index.isbm
//	bitmapctl convert -codec wah [-v1] -in index.isbm -out recoded.isbm
//	bitmapctl query [-op OP] [-lo V -hi V] [-slo P -shi P] index.isbm [b.isbm]
//	bitmapctl explain -op count -lo V -hi V index.isbm
//	bitmapctl histogram index.isbm
//	bitmapctl entropy index.isbm
//	bitmapctl mi a.isbm b.isbm
//	bitmapctl emd a.isbm b.isbm
//	bitmapctl fsck [-repair] [-json] outdir/
//	bitmapctl top -addr localhost:6060 [-interval 1s] [-once]
//	bitmapctl profile top|diff|list|watch -addr localhost:6060 [-kind cpu] [-by op]
//	bitmapctl diag -addr localhost:6060 -out diag.tar.gz
//	bitmapctl replay -log workload.isql [-concurrency N] [-speedup X] index.isbm
//	bitmapctl workload -log workload.isql [index.isbm]
//	bitmapctl query -addr http://localhost:8689 -op count -var temp -lo V -hi V
//	bitmapctl load -addr http://localhost:8689 -rate 500 -duration 10s
//
// Raw input files use the .israw format (WriteRawFile); `bitmapctl genraw`
// produces a demo file from the Heat3D workload.
//
// The global -debug-addr flag (before the subcommand) starts the telemetry
// debug server for the duration of the command, exposing live counters,
// histograms and pprof (see docs/OBSERVABILITY.md):
//
//	bitmapctl -debug-addr :6060 mine -units 64 a.isbm b.isbm
//
// The global -qlog flag captures every query the command executes into a
// workload log for later `bitmapctl replay` / `bitmapctl workload`:
//
//	bitmapctl -qlog workload.isql explain -op count -lo 1 -hi 5 index.isbm
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"insitubits"
)

func main() {
	global := flag.NewFlagSet("bitmapctl", flag.ExitOnError)
	global.Usage = func() { usage() }
	debugAddr := global.String("debug-addr", "", "serve live telemetry, expvar and pprof on this address (e.g. :6060)")
	cacheMB := global.Int("cache-mb", 0, "install a materialized-bitmap cache of this many MB for the command (0 = off)")
	qlogPath := global.String("qlog", "", "capture every executed query into this workload log (.isql)")
	global.Parse(os.Args[1:]) // stops at the subcommand (first non-flag)
	if global.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd, args := global.Arg(0), global.Args()[1:]
	if *cacheMB > 0 {
		insitubits.SetDefaultBitmapCache(insitubits.NewBitmapCache(int64(*cacheMB) << 20))
	}
	if *debugAddr != "" {
		dbg, err := insitubits.Telemetry.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bitmapctl: %v\n", err)
			os.Exit(1)
		}
		defer dbg.Close()
		hist := insitubits.StartMetricsHistory(insitubits.Telemetry, time.Second, 300)
		defer hist.Stop()
		fmt.Fprintf(os.Stderr, "debug server: http://%s\n", dbg.Addr)
	}
	if *qlogPath != "" {
		w, err := insitubits.CreateQueryLog(*qlogPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bitmapctl: %v\n", err)
			os.Exit(1)
		}
		insitubits.InstallQueryLog(w)
		defer func() {
			insitubits.InstallQueryLog(nil)
			if err := w.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "bitmapctl: closing workload log: %v\n", err)
			}
			// Health after Close: records are counted as the drain goroutine
			// writes them, so the final count is only stable once drained.
			h := w.Health()
			fmt.Fprintf(os.Stderr, "workload log: %d records to %s (%d dropped, %d errors)\n",
				h.Records, *qlogPath, h.Dropped, h.Errors)
		}()
	}
	var err error
	switch cmd {
	case "build":
		err = cmdBuild(args)
	case "info":
		err = cmdInfo(args)
	case "stat":
		err = cmdStat(args)
	case "convert":
		err = cmdConvert(args)
	case "query":
		err = cmdQuery(args)
	case "explain":
		err = cmdExplain(args)
	case "histogram":
		err = cmdHistogram(args)
	case "entropy":
		err = cmdEntropy(args)
	case "mi":
		err = cmdPair(args, "mi")
	case "emd":
		err = cmdPair(args, "emd")
	case "genraw":
		err = cmdGenRaw(args)
	case "genocean":
		err = cmdGenOcean(args)
	case "vars":
		err = cmdVars(args)
	case "mine":
		err = cmdMine(args)
	case "subgroup":
		err = cmdSubgroup(args)
	case "aggregate":
		err = cmdAggregate(args)
	case "evolve":
		err = cmdEvolve(args)
	case "manifest":
		err = cmdManifest(args)
	case "fsck":
		err = cmdFsck(args)
	case "top":
		err = cmdTop(args)
	case "profile":
		err = cmdProfile(args)
	case "diag":
		err = cmdDiag(args)
	case "cache-stats":
		err = cmdCacheStats(args)
	case "load":
		err = cmdLoad(args)
	case "replay":
		err = cmdReplay(args)
	case "workload":
		err = cmdWorkload(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bitmapctl %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: bitmapctl [-debug-addr ADDR] [-cache-mb N] [-qlog FILE] <build|info|stat|convert|query|explain|histogram|entropy|mi|emd|aggregate|mine|subgroup|vars|manifest|fsck|top|profile|diag|cache-stats|replay|workload|load|evolve|genraw|genocean> ...`)
}

func loadIndex(path string) (*insitubits.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return insitubits.ReadIndexFile(f)
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	in := fs.String("in", "", "input raw array file (.israw)")
	out := fs.String("out", "", "output index file (.isbm)")
	bins := fs.Int("bins", 128, "number of value bins")
	codecName := fs.String("codec", "auto", "per-bin bitmap codec: auto | wah | bbc")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("both -in and -out are required")
	}
	codecID, err := insitubits.ParseCodec(*codecName)
	if err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	data, err := insitubits.ReadRawFile(f)
	f.Close()
	if err != nil {
		return err
	}
	lo, hi := insitubits.MinMax(data)
	m, err := insitubits.NewUniformBins(lo, hi+1e-9, *bins)
	if err != nil {
		return err
	}
	x := insitubits.BuildIndexCodec(data, m, codecID)
	g, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer g.Close()
	written, err := insitubits.WriteIndexFile(g, x)
	if err != nil {
		return err
	}
	fmt.Printf("indexed %d elements into %d bins: %d bytes (%.1f%% of raw)\n",
		x.N(), x.Bins(), written, 100*float64(written)/float64(insitubits.RawFileSize(x.N())))
	return nil
}

func cmdInfo(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: bitmapctl info FILE")
	}
	x, err := loadIndex(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("elements:   %d\n", x.N())
	fmt.Printf("bins:       %d over [%g, %g)\n", x.Bins(), x.Mapper().Low(0), x.Mapper().High(x.Bins()-1))
	fmt.Printf("compressed: %d bytes (%.1f%% of raw)\n",
		x.SizeBytes(), 100*float64(x.SizeBytes())/float64(8*x.N()))
	nonEmpty := 0
	literals, fills, filledSegs := 0, 0, 0
	for b := 0; b < x.Bins(); b++ {
		if x.Count(b) > 0 {
			nonEmpty++
		}
		st := x.Bitmap(b).Stats()
		literals += st.LiteralWords
		fills += st.FillWords
		filledSegs += st.FilledSegments
	}
	fmt.Printf("non-empty:  %d bins\n", nonEmpty)
	fmt.Printf("encoding:   %d literal words, %d fill words covering %d segments\n",
		literals, fills, filledSegs)
	fmt.Printf("entropy:    %.4f bits\n", insitubits.Entropy(x.Histogram(), x.N()))
	return nil
}

// cmdStat reports the physical encoding of every bin: codec, compressed
// bytes, and the compression ratio against the uncompressed form.
func cmdStat(args []string) error {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	all := fs.Bool("all", false, "also list empty bins")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: bitmapctl stat [-all] FILE")
	}
	x, err := loadIndex(fs.Arg(0))
	if err != nil {
		return err
	}
	// Uncompressed reference: one 31-bit segment word per bin row.
	plainBytes := 4 * ((x.N() + insitubits.SegmentBits - 1) / insitubits.SegmentBits)
	fmt.Printf("%4s  %-6s %9s %10s %8s %9s\n", "bin", "codec", "count", "bytes", "vs plain", "density")
	perCodec := map[insitubits.Codec]int{}
	total := 0
	for b := 0; b < x.Bins(); b++ {
		id := x.Codec(b)
		perCodec[id]++
		sz := x.Bitmap(b).SizeBytes()
		total += sz
		if x.Count(b) == 0 && !*all {
			continue
		}
		ratio := 0.0
		if plainBytes > 0 {
			ratio = float64(sz) / float64(plainBytes)
		}
		density := 0.0
		if x.N() > 0 {
			density = float64(x.Count(b)) / float64(x.N())
		}
		fmt.Printf("%4d  %-6s %9d %10d %7.1f%% %8.4f\n", b, id, x.Count(b), sz, 100*ratio, density)
	}
	fmt.Printf("codecs: ")
	for _, id := range []insitubits.Codec{insitubits.CodecWAH, insitubits.CodecBBC} {
		if n := perCodec[id]; n > 0 {
			fmt.Printf("%s=%d ", id, n)
		}
	}
	fmt.Printf("\ntotal:  %d bytes across %d bins (%.1f%% of %d uncompressed bytes)\n",
		total, x.Bins(), 100*float64(total)/float64(plainBytes*x.Bins()+1), plainBytes*x.Bins())
	return nil
}

// cmdConvert re-encodes an index file under a different codec (or down to
// the legacy v1 layout with -v1, which is always all-WAH on disk).
func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input index file (.isbm)")
	out := fs.String("out", "", "output index file (.isbm)")
	codecName := fs.String("codec", "auto", "target codec: auto | wah | bbc")
	v1 := fs.Bool("v1", false, "write the legacy all-WAH v1 layout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("both -in and -out are required")
	}
	codecID, err := insitubits.ParseCodec(*codecName)
	if err != nil {
		return err
	}
	x, err := loadIndex(*in)
	if err != nil {
		return err
	}
	before := x.SizeBytes()
	x.Recode(codecID)
	g, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer g.Close()
	var written int64
	if *v1 {
		written, err = insitubits.WriteIndexFileV1(g, x)
	} else {
		written, err = insitubits.WriteIndexFile(g, x)
	}
	if err != nil {
		return err
	}
	fmt.Printf("recoded %d bins to %s: %d -> %d in-memory bytes, %d on disk\n",
		x.Bins(), codecID, before, x.SizeBytes(), written)
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	addr := fs.String("addr", "", "query a running insitu-serve instead of a local file (e.g. http://localhost:8689)")
	op := fs.String("op", "count", "operator: count | sum | mean | quantile | minmax | bits | correlation (two files, or -var-b) | explain (with -addr)")
	varName := fs.String("var", "", "served variable name (with -addr; optional when one variable is served)")
	varB := fs.String("var-b", "", "second operand for -op correlation (with -addr)")
	request := requestFlags(fs)
	timeoutMs := fs.Int64("timeout-ms", 0, "per-request deadline override sent to the server (0 = server default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// "explain" is the wire's word for "estimate this op's plan"; with no
	// flag to name the op here, it explains the default, count.
	name, explain := *op, *op == "explain"
	if explain {
		name = "count"
	}
	req, err := request(name)
	if err != nil {
		return err
	}
	if *addr != "" {
		wire := insitubits.NewServeQueryRequest(req)
		wire.Var, wire.VarB, wire.TimeoutMs = *varName, *varB, *timeoutMs
		if explain {
			wire.Op, wire.ExplainOp = "explain", wire.Op
		}
		return remoteQuery(*addr, wire)
	}
	if explain {
		return fmt.Errorf("-op explain needs -addr; on files use `bitmapctl explain`")
	}
	want := 1
	if req.Op == insitubits.QueryOpCorrelation {
		want = 2
	}
	if fs.NArg() != want {
		return fmt.Errorf("usage: bitmapctl query [-addr URL] [-op OP] [-lo V -hi V] [-slo P -shi P] FILE [FILE2 for -op correlation]")
	}
	x, err := loadIndex(fs.Arg(0))
	if err != nil {
		return err
	}
	var xb *insitubits.Index
	if want == 2 {
		if xb, err = loadIndex(fs.Arg(1)); err != nil {
			return err
		}
	}
	// The same request through the same query layer the server runs it on,
	// so the answer plans, caches, captures (-qlog) and digests alike.
	start := time.Now()
	ans, err := insitubits.RunQuery(context.Background(), req, x, xb)
	if err != nil {
		return err
	}
	resp := &insitubits.ServeQueryResponse{Op: name, Var: fs.Arg(0)}
	resp.SetAnswer(&ans)
	printAnswer(resp, fs.Arg(1))
	fmt.Printf("digest=%s elements=%d elapsed=%s\n", resp.Digest, x.N(), time.Since(start).Round(time.Microsecond))
	return nil
}

func cmdHistogram(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: bitmapctl histogram FILE")
	}
	x, err := loadIndex(args[0])
	if err != nil {
		return err
	}
	max := 0
	for _, c := range x.Histogram() {
		if c > max {
			max = c
		}
	}
	for b, c := range x.Histogram() {
		if c == 0 {
			continue
		}
		bar := ""
		if max > 0 {
			for i := 0; i < 50*c/max; i++ {
				bar += "#"
			}
		}
		fmt.Printf("[%10.3f, %10.3f) %8d %s\n", x.Mapper().Low(b), x.Mapper().High(b), c, bar)
	}
	return nil
}

func cmdEntropy(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: bitmapctl entropy FILE")
	}
	x, err := loadIndex(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("%.6f\n", insitubits.Entropy(x.Histogram(), x.N()))
	return nil
}

func cmdPair(args []string, kind string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bitmapctl %s A B", kind)
	}
	xa, err := loadIndex(args[0])
	if err != nil {
		return err
	}
	xb, err := loadIndex(args[1])
	if err != nil {
		return err
	}
	if xa.N() != xb.N() {
		return fmt.Errorf("indices cover %d and %d elements", xa.N(), xb.N())
	}
	// Both metrics pair the elements up through bin ids of at most two bytes.
	if bins := max(xa.Bins(), xb.Bins()); bins > 1<<16 {
		return fmt.Errorf("%s needs indexes of at most %d bins, not %d", kind, 1<<16, bins)
	}
	switch kind {
	case "mi":
		p := insitubits.PairFromBitmaps(xa, xb)
		fmt.Printf("I(A;B)=%.6f  H(A)=%.6f  H(B)=%.6f  H(A|B)=%.6f  H(B|A)=%.6f\n",
			p.MI, p.EntropyA, p.EntropyB, p.CondEntropyAB, p.CondEntropyBA)
	case "emd":
		if xa.Bins() != xb.Bins() {
			return fmt.Errorf("spatial EMD needs matching binning (%d vs %d bins)", xa.Bins(), xb.Bins())
		}
		fmt.Printf("EMD(count)=%.2f  EMD(spatial)=%.2f\n",
			insitubits.EMDCount(xa.Histogram(), xb.Histogram()),
			insitubits.EMDSpatialBitmaps(xa, xb))
	}
	return nil
}

func cmdGenRaw(args []string) error {
	fs := flag.NewFlagSet("genraw", flag.ExitOnError)
	out := fs.String("out", "heat3d.israw", "output raw array file")
	steps := fs.Int("steps", 10, "heat3d steps to advance before capture")
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, err := insitubits.NewHeat3D(32, 32, 24)
	if err != nil {
		return err
	}
	var data []float64
	for i := 0; i < *steps; i++ {
		data = h.Step(2)[0].Data
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := insitubits.WriteRawFile(f, data); err != nil {
		return err
	}
	fmt.Printf("wrote %d temperatures to %s\n", len(data), *out)
	return nil
}
