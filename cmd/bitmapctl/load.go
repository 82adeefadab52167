package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"insitubits"
)

// remoteQuery executes one query against a running insitu-serve through
// the retrying client (sheds are backed off and retried, honoring the
// server's Retry-After hint) and prints the answer with its digest and
// generation stamps.
func remoteQuery(addr string, req *insitubits.ServeQueryRequest) error {
	cl := &insitubits.ServeClient{Base: strings.TrimSuffix(addr, "/")}
	cl.Backoff.Tries = 8
	cl.Backoff.Base = 25 * time.Millisecond
	cl.Backoff.Max = time.Second
	cl.Backoff.Seed = time.Now().UnixNano()
	start := time.Now()
	resp, err := cl.Query(context.Background(), req)
	if err != nil {
		return err
	}
	printAnswer(resp, req.VarB)
	fmt.Printf("digest=%s generation=%d catalog=%d step=%d server=%s round-trip=%s",
		resp.Digest, resp.Generation, resp.CatalogGen, resp.Step,
		time.Duration(resp.ElapsedNs), time.Since(start).Round(time.Microsecond))
	if resp.TraceID != "" {
		fmt.Printf(" trace=%s", resp.TraceID)
	}
	if cl.Retries > 0 {
		fmt.Printf(" retries=%d", cl.Retries)
	}
	fmt.Println()
	return nil
}

// printAnswer prints the result line of a query answered remotely or from
// local files; varB names a correlation's second operand.
func printAnswer(resp *insitubits.ServeQueryResponse, varB string) {
	switch {
	case resp.Aggregate != nil:
		a := resp.Aggregate
		fmt.Printf("%s(%s): count=%d estimate=%g bounds=[%g, %g]\n", resp.Op, resp.Var, a.Count, a.Estimate, a.Lo, a.Hi)
	case resp.Min != nil && resp.Max != nil:
		fmt.Printf("minmax(%s): min=[%g, %g] max=[%g, %g]\n", resp.Var, resp.Min.Lo, resp.Min.Hi, resp.Max.Lo, resp.Max.Hi)
	case resp.Pair != nil:
		p := resp.Pair
		fmt.Printf("correlation(%s, %s): I(A;B)=%.6f H(A)=%.6f H(B)=%.6f H(A|B)=%.6f H(B|A)=%.6f\n",
			resp.Var, varB, p.MI, p.EntropyA, p.EntropyB, p.CondEntropyAB, p.CondEntropyBA)
	case resp.Explain != "":
		os.Stdout.WriteString(resp.Explain)
	default:
		fmt.Printf("%s(%s): %d\n", resp.Op, resp.Var, resp.Count)
	}
}

// cmdLoad drives the open-loop load generator against a running
// insitu-serve — the capacity-planning and soak tool behind the numbers
// in docs/SERVING.md.
func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8689", "insitu-serve address")
	rate := fs.Float64("rate", 200, "request launch rate per second (open loop)")
	duration := fs.Duration("duration", 5*time.Second, "launch window")
	total := fs.Int("total", 0, "exact request count (overrides -rate x -duration)")
	vars := fs.String("vars", "", "comma-separated variable names to draw from (default: ask the server)")
	ops := fs.String("ops", "count,sum,mean", "comma-separated op mix")
	timeout := fs.Duration("timeout", 0, "per-request timeout_ms sent to the server (0 = server default)")
	retry := fs.Bool("retry", false, "retry shed requests through client backoff instead of counting them")
	seed := fs.Int64("seed", 1, "request-mix seed")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}

	varList := splitList(*vars)
	if len(varList) == 0 {
		// Ask the server what it serves.
		cl := &insitubits.ServeClient{Base: strings.TrimSuffix(*addr, "/")}
		listing, err := cl.Vars(context.Background())
		if err != nil {
			return fmt.Errorf("listing served variables: %w", err)
		}
		if entries, ok := listing["vars"].([]any); ok {
			for _, e := range entries {
				if m, ok := e.(map[string]any); ok {
					if name, ok := m["name"].(string); ok {
						varList = append(varList, name)
					}
				}
			}
		}
		if len(varList) == 0 {
			return fmt.Errorf("server lists no variables")
		}
	}

	rep := insitubits.RunServeLoad(context.Background(), insitubits.ServeLoadConfig{
		Base:     strings.TrimSuffix(*addr, "/"),
		Rate:     *rate,
		Duration: *duration,
		Total:    *total,
		Seed:     *seed,
		Vars:     varList,
		Ops:      splitList(*ops),
		Timeout:  *timeout,
		Retry:    *retry,
	})
	if *jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		os.Stdout.Write(append(data, '\n'))
	} else {
		fmt.Printf("sent:        %d in %s (%.0f launched/s)\n", rep.Sent, rep.Elapsed.Round(time.Millisecond), float64(rep.Sent)/rep.Elapsed.Seconds())
		fmt.Printf("ok:          %d (%.0f answers/s)\n", rep.OK, rep.Throughput())
		fmt.Printf("shed:        %d (final 429s after %d retries)\n", rep.Shed, rep.Retries)
		fmt.Printf("errors:      %d 5xx, %d other 4xx, %d network\n", rep.Errors5x, rep.Errors4x, rep.Network)
		fmt.Printf("latency:     p50=%s p95=%s p99=%s max=%s\n",
			rep.P50.Round(time.Microsecond), rep.P95.Round(time.Microsecond),
			rep.P99.Round(time.Microsecond), rep.Max.Round(time.Microsecond))
		if len(rep.DigestConflicts) > 0 {
			fmt.Printf("digest conflicts (%d keys — expected only across reloads):\n", len(rep.DigestConflicts))
			for k, ds := range rep.DigestConflicts {
				fmt.Printf("  %s: %v\n", k, ds)
			}
		}
	}
	if rep.Errors5x > 0 {
		return fmt.Errorf("%d server errors under load", rep.Errors5x)
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
