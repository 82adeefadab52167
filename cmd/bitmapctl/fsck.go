package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"insitubits"
)

// cmdFsck verifies a pipeline output directory against its journal:
// journal integrity, every committed artifact's checksum, and the manifest. Exit codes follow
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
		fmt.Printf("%s: %d files checked, %s\n", rep.Dir, rep.FilesChecked, state)
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
