package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"insitubits"
)

// requestFlags registers the subset flags `query` and `explain` share and
// returns the builder of the one request they describe for an operator:
// whatever executes it — this process or a server — sees the same bounds.
// A correlation applies the value and spatial range to both operands.
func requestFlags(fs *flag.FlagSet) func(opName string) (insitubits.QueryRequest, error) {
	lo := fs.Float64("lo", 0, "lower value bound (inclusive, bin-granular)")
	hi := fs.Float64("hi", 0, "upper value bound (exclusive, bin-granular)")
	slo := fs.Int("slo", 0, "lower spatial bound (inclusive element position)")
	shi := fs.Int("shi", 0, "upper spatial bound (exclusive element position)")
	q := fs.Float64("q", 0.5, "quantile for -op quantile")
	return func(opName string) (insitubits.QueryRequest, error) {
		op, err := insitubits.ParseQueryOp(opName)
		s := insitubits.QuerySubset{ValueLo: *lo, ValueHi: *hi, SpatialLo: *slo, SpatialHi: *shi}
		req := insitubits.QueryRequest{Op: op, A: s, Q: *q}
		if op == insitubits.QueryOpCorrelation {
			req.B = s
		}
		return req, err
	}
}

// cmdExplain prints the estimated plan (EXPLAIN — per-bin index stats
// only, nothing executed) and then executes the same request under ANALYZE,
// printing the measured per-operator profile next to it. With two index
// files the query is the interactive correlation query of the paper.
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	opName := fs.String("op", "count", "query operator: bits | count | sum | mean | quantile | minmax | correlation")
	request := requestFlags(fs)
	jsonOut := fs.Bool("json", false, "emit the two profiles as JSON instead of rendered trees")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		return fmt.Errorf("usage: bitmapctl explain [-op OP] [-lo V -hi V] [-slo P -shi P] FILE [FILE2]")
	}
	if fs.NArg() == 2 {
		*opName = "correlation" // two files can only mean the pair query
	}
	req, err := request(*opName)
	if err != nil {
		return err
	}
	x, err := loadIndex(fs.Arg(0))
	if err != nil {
		return err
	}
	var xb *insitubits.Index
	if req.Op == insitubits.QueryOpCorrelation {
		if fs.NArg() != 2 {
			return fmt.Errorf("-op correlation needs two index files")
		}
		if xb, err = loadIndex(fs.Arg(1)); err != nil {
			return err
		}
	}
	est, err := insitubits.ExplainQueryRequest(req, x, xb)
	if err != nil {
		return err
	}
	_, prof, err := insitubits.AnalyzeQuery(context.Background(), req, x, xb)
	if err != nil {
		return err
	}
	if *jsonOut {
		fmt.Printf("{\"explain\": %s, \"analyze\": %s}\n", est.JSON(), prof.JSON())
		return nil
	}
	fmt.Println("-- EXPLAIN (estimated, not executed) --")
	os.Stdout.WriteString(est.Render())
	fmt.Println("-- ANALYZE (executed) --")
	os.Stdout.WriteString(prof.Render())
	return nil
}
