package main

import (
	"flag"
	"fmt"
	"strings"

	"insitubits"
)

// cmdCacheStats prints the materialized-bitmap cache counters. With -addr it
// fetches a running process's /debug/cache endpoint; with -local it reads the
// in-process default cache (useful under -cache-mb to summarize what the
// command just did, e.g. `bitmapctl -cache-mb 64 mine ... && ...`).
//
//	bitmapctl cache-stats -addr localhost:6060
func cmdCacheStats(args []string) error {
	fs := flag.NewFlagSet("cache-stats", flag.ExitOnError)
	addr := fs.String("addr", "localhost:6060", "debug server address (host:port)")
	local := fs.Bool("local", false, "report the in-process cache instead of querying -addr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var st insitubits.BitmapCacheStats
	if *local {
		st = insitubits.DefaultBitmapCache().Stats()
	} else {
		var err error
		st, err = fetchCacheStats(fmt.Sprintf("http://%s/debug/cache", *addr))
		if err != nil {
			return err
		}
	}
	fmt.Print(renderCacheStats(st))
	return nil
}

// fetchCacheStats GETs and decodes one /debug/cache snapshot.
func fetchCacheStats(url string) (insitubits.BitmapCacheStats, error) {
	var st insitubits.BitmapCacheStats
	err := debugGetJSON(url, 1<<20, "cache stats", &st)
	return st, err
}

// renderCacheStats formats one cache snapshot. Pure — shared with tests.
func renderCacheStats(st insitubits.BitmapCacheStats) string {
	var b strings.Builder
	if !st.Enabled {
		b.WriteString("bitmap cache: disabled (no cache installed)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "bitmap cache: %d entries, %s of %s\n",
		st.Entries, fmtBytes(st.Bytes), fmtBytes(st.MaxBytes))
	total := st.Hits + st.Misses
	ratio := 0.0
	if total > 0 {
		ratio = 100 * float64(st.Hits) / float64(total)
	}
	fmt.Fprintf(&b, "lookups:      %d hits, %d misses (%.1f%% hit rate)\n", st.Hits, st.Misses, ratio)
	fmt.Fprintf(&b, "turnover:     %d evictions, %d invalidations\n", st.Evictions, st.Invalidations)
	return b.String()
}
