package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"insitubits"
)

// Dataset-oriented subcommands: generate a demo ocean dataset file, list
// its variables, index one variable, mine correlations between two, and
// discover subgroups — the offline workflow over .isds containers.

func cmdGenOcean(args []string) error {
	fs := flag.NewFlagSet("genocean", flag.ExitOnError)
	out := fs.String("out", "ocean.isds", "output dataset file")
	lon := fs.Int("lon", 64, "longitude cells")
	lat := fs.Int("lat", 64, "latitude cells")
	depth := fs.Int("depth", 16, "depth levels")
	seed := fs.Int64("seed", 42, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := insitubits.GenerateOcean(*lon, *lat, *depth, *seed)
	if err != nil {
		return err
	}
	ds := insitubits.NewDatasetFile(*lon, *lat, *depth)
	for _, name := range d.Names {
		data, err := d.VarCurveOrder(name) // curve order: mining-ready
		if err != nil {
			return err
		}
		if err := ds.Add(name, data); err != nil {
			return err
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	written, err := insitubits.WriteDatasetFile(f, ds)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d variables x %d cells (%d bytes, Z-order layout) to %s\n",
		len(ds.Names), d.N(), written, *out)
	return nil
}

func loadDataset(path string) (*insitubits.DatasetFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return insitubits.ReadDatasetFile(f)
}

func cmdVars(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: bitmapctl vars FILE.isds")
	}
	ds, err := loadDataset(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("grid %dx%dx%d\n", ds.NX, ds.NY, ds.NZ)
	for _, name := range ds.Names {
		data, _ := ds.Var(name)
		lo, hi := insitubits.MinMax(data)
		fmt.Printf("  %-14s %d elements, range [%.4g, %.4g]\n", name, len(data), lo, hi)
	}
	return nil
}

// indexVar builds an index over one dataset variable.
func indexVar(ds *insitubits.DatasetFile, name string, bins int) (*insitubits.Index, error) {
	data, err := ds.Var(name)
	if err != nil {
		return nil, err
	}
	lo, hi := insitubits.MinMax(data)
	m, err := insitubits.NewUniformBins(lo, hi+1e-9, bins)
	if err != nil {
		return nil, err
	}
	return insitubits.BuildIndex(data, m), nil
}

func cmdMine(args []string) error {
	fs := flag.NewFlagSet("mine", flag.ExitOnError)
	in := fs.String("in", "", "dataset file (.isds)")
	varA := fs.String("a", "temperature", "first variable")
	varB := fs.String("b", "salinity", "second variable")
	bins := fs.Int("bins", 48, "value bins per variable")
	unit := fs.Int("unit", 512, "spatial unit size (elements)")
	t1 := fs.Float64("t", 0.002, "value threshold T")
	t2 := fs.Float64("t2", 0.05, "spatial threshold T'")
	top := fs.Int("top", 10, "findings to print, strongest first")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	ds, err := loadDataset(*in)
	if err != nil {
		return err
	}
	xa, err := indexVar(ds, *varA, *bins)
	if err != nil {
		return err
	}
	xb, err := indexVar(ds, *varB, *bins)
	if err != nil {
		return err
	}
	findings, err := insitubits.Mine(xa, xb, insitubits.MiningConfig{
		UnitSize: *unit, ValueThreshold: *t1, SpatialThreshold: *t2,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%d correlated (value pair, spatial unit) findings\n", len(findings))
	sort.SliceStable(findings, func(i, j int) bool { return findings[i].SpatialMI > findings[j].SpatialMI })
	for _, f := range findings[:min(max(*top, 0), len(findings))] {
		fmt.Printf("  %s[%.3g,%.3g) x %s[%.3g,%.3g)  cells [%d,%d)  localMI=%.4f\n",
			*varA, xa.Mapper().Low(f.BinA), xa.Mapper().High(f.BinA),
			*varB, xb.Mapper().Low(f.BinB), xb.Mapper().High(f.BinB),
			f.Begin, f.End, f.SpatialMI)
	}
	return nil
}

func cmdSubgroup(args []string) error {
	fs := flag.NewFlagSet("subgroup", flag.ExitOnError)
	in := fs.String("in", "", "dataset file (.isds)")
	target := fs.String("target", "oxygen", "target variable")
	varList := fs.String("vars", "temperature,salinity", "comma-separated explanatory variables")
	bins := fs.Int("bins", 20, "value bins per variable")
	top := fs.Int("top", 5, "subgroups to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	ds, err := loadDataset(*in)
	if err != nil {
		return err
	}
	names := strings.Split(*varList, ",")
	vars := make([]*insitubits.Index, len(names))
	for i, name := range names {
		vars[i], err = indexVar(ds, strings.TrimSpace(name), *bins)
		if err != nil {
			return err
		}
	}
	xt, err := indexVar(ds, *target, *bins)
	if err != nil {
		return err
	}
	sgs, err := insitubits.DiscoverSubgroups(vars, xt, insitubits.SubgroupConfig{TopK: *top})
	if err != nil {
		return err
	}
	globalMean, err := insitubits.SubsetMean(context.Background(), xt, insitubits.QuerySubset{})
	if err != nil {
		return err
	}
	fmt.Printf("global %s mean: %.4f; top subgroups:\n", *target, globalMean.Estimate)
	for i, sg := range sgs {
		fmt.Printf("  %d. %s -> mean %.4f over %d cells (quality %.4f)\n",
			i+1, insitubits.DescribeSubgroup(sg, vars, names), sg.Mean, sg.Count, sg.Quality)
	}
	return nil
}

func cmdManifest(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: bitmapctl manifest DIR")
	}
	dir := args[0]
	m, err := insitubits.ReadManifest(dir)
	if err != nil {
		return err
	}
	fmt.Printf("workload: %s (%s), %d steps simulated, %d selected: %v\n",
		m.Workload, m.Method, m.Steps, len(m.Selected), m.Selected)
	fmt.Printf("variables: %v\n", m.Vars)
	var total int64
	bad := 0
	for _, mf := range m.Files {
		total += mf.Bytes
		// Validate: every listed artifact must parse.
		path := filepath.Join(dir, mf.Path)
		f, err := os.Open(path)
		if err != nil {
			fmt.Printf("  MISSING %s (%v)\n", mf.Path, err)
			bad++
			continue
		}
		switch {
		case strings.HasSuffix(mf.Path, ".isbm"):
			_, err = insitubits.ReadIndexFile(f)
		case strings.HasSuffix(mf.Path, ".israw"):
			_, err = insitubits.ReadRawFile(f)
		default:
			err = fmt.Errorf("unknown artifact type")
		}
		f.Close()
		if err != nil {
			fmt.Printf("  CORRUPT %s (%v)\n", mf.Path, err)
			bad++
		}
	}
	fmt.Printf("%d artifacts, %.2f MB total", len(m.Files), float64(total)/1e6)
	if bad > 0 {
		fmt.Printf(", %d FAILED validation\n", bad)
		return fmt.Errorf("%d artifacts failed validation", bad)
	}
	fmt.Println(", all validate")
	return nil
}

func cmdEvolve(args []string) error {
	fs := flag.NewFlagSet("evolve", flag.ExitOnError)
	varName := fs.String("var", "", "variable to trace (default: first archived)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: bitmapctl evolve [-var NAME] DIR")
	}
	a, err := insitubits.LoadArchive(fs.Arg(0))
	if err != nil {
		return err
	}
	name := *varName
	if name == "" {
		name = a.Vars()[0]
	}
	ev, err := a.Evolve(name)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %10s %12s %12s\n", "step", "entropy", "H(cur|prev)", "EMD(prev)")
	for _, e := range ev {
		fmt.Printf("%-6d %10.4f %12.4f %12.1f\n", e.Step, e.Entropy, e.CondEntropy, e.EMD)
	}
	return nil
}

func cmdAggregate(args []string) error {
	fs := flag.NewFlagSet("aggregate", flag.ExitOnError)
	lo := fs.Float64("lo", 0, "value lower bound (with -hi)")
	hi := fs.Float64("hi", 0, "value upper bound")
	slo := fs.Int("slo", 0, "spatial lower bound (with -shi)")
	shi := fs.Int("shi", 0, "spatial upper bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: bitmapctl aggregate [flags] FILE.isbm")
	}
	x, err := loadIndex(fs.Arg(0))
	if err != nil {
		return err
	}
	s := insitubits.QuerySubset{ValueLo: *lo, ValueHi: *hi, SpatialLo: *slo, SpatialHi: *shi}
	sum, err := insitubits.SubsetSum(context.Background(), x, s)
	if err != nil {
		return err
	}
	if sum.Count == 0 {
		fmt.Println("empty subset")
		return nil
	}
	mean, err := insitubits.SubsetMean(context.Background(), x, s)
	if err != nil {
		return err
	}
	fmt.Printf("count: %d (exact)\n", sum.Count)
	fmt.Printf("sum:   %.6g  (true value in [%.6g, %.6g])\n", sum.Estimate, sum.Lo, sum.Hi)
	fmt.Printf("mean:  %.6g  (true value in [%.6g, %.6g])\n", mean.Estimate, mean.Lo, mean.Hi)
	return nil
}
