package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"insitubits"
)

// cmdFsck verifies a pipeline output directory against its journal:
// journal integrity, every committed artifact's checksum, and the manifest.
// Its summary line names the run (workload, method, committed steps,
// variables) as the journal records it. Exit codes follow
// fsck convention — 0 clean, 1 issues found, 2 usage error (the dispatcher
// maps the returned errIssuesFound to exit 1 like any other error).
func cmdFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	repair := fs.Bool("repair", false, "quarantine damaged steps and strays; for a completed run, rewrite a consistent manifest and journal")
	asJSON := fs.Bool("json", false, "emit the full report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bitmapctl fsck [-repair] [-json] DIR")
		os.Exit(2)
	}
	rep, err := insitubits.Fsck(fs.Arg(0), insitubits.FsckOptions{Repair: *repair})
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		state := "complete"
		if !rep.Complete {
			state = "incomplete"
		}
		run := ""
		if b := rep.Begin; b != nil {
			run = fmt.Sprintf(" %s (%s), %d of %d steps committed %v, vars %v;",
				b.Workload, b.Method, len(rep.Committed), b.Steps, rep.Committed, b.Vars)
		}
		fmt.Printf("%s:%s %d files checked (%.2f MB), %s\n",
			rep.Dir, run, rep.FilesChecked, float64(rep.BytesChecked)/1e6, state)
		for _, is := range rep.Issues {
			loc := is.Path
			if is.Step >= 0 {
				loc = fmt.Sprintf("%s (step %d)", is.Path, is.Step)
			}
			fmt.Printf("  %-9s %s: %s", is.Class, loc, is.Detail)
			if is.Action != "" {
				fmt.Printf(" [%s]", is.Action)
			}
			fmt.Println()
		}
	}
	if !rep.Clean() && !rep.Repaired {
		return fmt.Errorf("%d issue(s) found", len(rep.Issues))
	}
	if rep.Repaired {
		fmt.Printf("repaired: %d issue(s) handled, damaged files in %s/\n",
			len(rep.Issues), insitubits.PipelineQuarantineDir)
	} else {
		fmt.Println("clean")
	}
	return nil
}
