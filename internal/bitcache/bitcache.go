// Package bitcache is a size-bounded LRU of materialized intermediate
// bitmaps: the query executor caches its plans' root results here, in
// process or behind `insitu-serve -cache-mb`, and the in-situ pipeline
// invalidates the generations each published step supersedes. Entries are
// keyed by a canonicalized operand expression plus the generations of
// every index the expression reads, so a cached bitmap can never be served
// after any of its source indices changes: an in-situ step publish (or an
// in-place Recode) bumps the generation and invalidates every dependent
// entry.
//
// The bound is bytes of encoded bitmap payload, not entry count — a handful
// of dense intermediates must not pin out thousands of tiny WAH ones.
// Bitmaps are immutable by contract (index.Bitmap: "shared, do not
// mutate"), so Get returns the cached bitmap itself, never a copy.
//
// A nil *Cache is valid and disables caching: every method no-ops, so call
// sites need no branches. The process-wide default cache (Default /
// SetDefault) starts nil; enabling it is always an explicit choice, keeping
// the disabled query hot path at one atomic pointer load (the same budget
// discipline as the telemetry and tracing gates).
package bitcache

import (
	"container/list"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"insitubits/internal/bitvec"
)

// Cache is the byte-bounded LRU. Safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element

	hits, misses, evictions, invalidations atomic.Int64
}

type entry struct {
	key  string
	gens []uint64
	bm   bitvec.Bitmap
	size int64
}

// New returns a cache bounded to maxBytes of encoded bitmap payload.
// maxBytes <= 0 returns nil (caching disabled).
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache{maxBytes: maxBytes, ll: list.New(), entries: make(map[string]*list.Element)}
}

// Get returns the bitmap cached under key, or nil. Nil-safe.
func (c *Cache) Get(key string) bitvec.Bitmap {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		if m := tel.misses; m != nil {
			m.Inc()
		}
		return nil
	}
	c.ll.MoveToFront(el)
	bm := el.Value.(*entry).bm
	c.mu.Unlock()
	c.hits.Add(1)
	if h := tel.hits; h != nil {
		h.Inc()
	}
	return bm
}

// Put stores bm under key, tagged with the generations of every index the
// expression reads (none for generation-free content like range vectors).
// Oversized bitmaps (larger than the whole cache) are rejected silently;
// existing entries are refreshed in place. Nil-safe on both receiver and bm.
func (c *Cache) Put(key string, bm bitvec.Bitmap, gens ...uint64) {
	if c == nil || bm == nil {
		return
	}
	size := int64(bm.SizeBytes())
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry)
		c.bytes += size - e.size
		e.bm, e.size = bm, size
		e.gens = append(e.gens[:0], gens...)
		c.ll.MoveToFront(el)
	} else {
		e := &entry{key: key, gens: append([]uint64(nil), gens...), bm: bm, size: size}
		c.entries[key] = c.ll.PushFront(e)
		c.bytes += size
	}
	evicted := 0
	for c.bytes > c.maxBytes {
		evicted += c.removeLocked(c.ll.Back())
	}
	c.mu.Unlock()
	c.noteEvictions(evicted)
}

// removeLocked drops one element; returns 1 if something was removed.
func (c *Cache) removeLocked(el *list.Element) int {
	if el == nil {
		return 0
	}
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.size
	return 1
}

func (c *Cache) noteEvictions(n int) {
	if n == 0 {
		return
	}
	c.evictions.Add(int64(n))
	if ev := tel.evictions; ev != nil {
		ev.Add(int64(n))
	}
}

// InvalidateGeneration drops every entry whose expression read an index of
// generation gen — the step-publish hook: when the in-situ pipeline
// supersedes an index, all intermediates derived from it must go. Nil-safe.
func (c *Cache) InvalidateGeneration(gen uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	dropped := 0
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		for _, g := range el.Value.(*entry).gens {
			if g == gen {
				dropped += c.removeLocked(el)
				break
			}
		}
	}
	c.mu.Unlock()
	if dropped > 0 {
		c.invalidations.Add(int64(dropped))
		if inv := tel.invalidated; inv != nil {
			inv.Add(int64(dropped))
		}
	}
}

// InvalidateAll empties the cache. Nil-safe.
func (c *Cache) InvalidateAll() {
	if c == nil {
		return
	}
	c.mu.Lock()
	dropped := len(c.entries)
	c.ll.Init()
	c.entries = make(map[string]*list.Element)
	c.bytes = 0
	c.mu.Unlock()
	if dropped > 0 {
		c.invalidations.Add(int64(dropped))
		if inv := tel.invalidated; inv != nil {
			inv.Add(int64(dropped))
		}
	}
}

// Stats is a point-in-time snapshot of the cache's counters and occupancy
// (the /debug/cache payload and the `bitmapctl cache-stats` record).
type Stats struct {
	Enabled       bool  `json:"enabled"`
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	MaxBytes      int64 `json:"max_bytes"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
}

// Stats snapshots the cache. Nil-safe: a nil cache reports Enabled=false.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	s := Stats{
		Enabled:  true,
		Entries:  len(c.entries),
		Bytes:    c.bytes,
		MaxBytes: c.maxBytes,
	}
	c.mu.Unlock()
	s.Hits = c.hits.Load()
	s.Misses = c.misses.Load()
	s.Evictions = c.evictions.Load()
	s.Invalidations = c.invalidations.Load()
	return s
}

// ---------------------------------------------------------------------------
// Process-wide default cache. Starts nil (disabled); the facade's
// SetDefaultBitmapCache and the CLIs' -cache-mb flag install one. The
// query planner and the miner consult it when no per-call override is set.

var defaultCache atomic.Pointer[Cache]

// Default returns the process-wide cache, or nil when caching is disabled.
func Default() *Cache { return defaultCache.Load() }

// SetDefault installs (or, with nil, removes) the process-wide cache and
// refreshes the gauge pair so occupancy is visible even while idle.
func SetDefault(c *Cache) {
	defaultCache.Store(c)
	publishGauges(c)
}

// ---------------------------------------------------------------------------
// Key construction. Keys canonicalize the operand expression: commutative
// operators sort their operand keys, so and(a,b) and and(b,a) share an
// entry. Index-reading leaves embed the index generation; pure content
// leaves (ones / range indicators) are generation-free — their bits are
// fully determined by their parameters.

// BinKey names bin b of an index generation.
func BinKey(gen uint64, b int) string { return fmt.Sprintf("g%d:b%d", gen, b) }

// OnesKey names the all-ones vector over n bits.
func OnesKey(n int) string { return fmt.Sprintf("ones:%d", n) }

// RangeKey names the [lo,hi) indicator over n bits.
func RangeKey(n, lo, hi int) string { return fmt.Sprintf("range:%d:%d:%d", n, lo, hi) }

// AndKey canonicalizes an AND of sub-expressions (operand order ignored).
func AndKey(keys ...string) string { return opKey("and", keys) }

// OrKey canonicalizes an OR of sub-expressions (operand order ignored).
func OrKey(keys ...string) string { return opKey("or", keys) }

func opKey(op string, keys []string) string {
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	return op + "(" + strings.Join(sorted, ",") + ")"
}
