package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"insitubits/internal/index"
	"insitubits/internal/insitu"
	"insitubits/internal/store"
)

// Entry is one served variable: an immutable, shared, read-only index
// loaded once per catalog generation. The index's own Generation() keys
// bitcache entries, so retiring an Entry invalidates exactly its cached
// bitmaps and nothing else.
type Entry struct {
	Name  string `json:"name"`
	Path  string `json:"path"`
	Step  int    `json:"step"` // manifest/journal step, -1 for plain files
	Bytes int64  `json:"bytes"`
	N     int    `json:"n"`
	Bins  int    `json:"bins"`
	Gen   uint64 `json:"generation"`

	X *index.Index `json:"-"`
}

// catalog is one immutable generation of the server's loaded indexes.
// Requests capture a single *catalog pointer at admission and use it for
// the whole request, so a concurrent reload can never serve one operand
// from the old generation and another from the new — the no-mixed-answer
// guarantee the chaos harness checks.
type catalog struct {
	gen     uint64 // server-side catalog generation, bumped per swap
	step    int    // newest committed step loaded, -1 for plain files
	source  string // the directory or file list the loader reads
	fprint  string // change fingerprint watchers compare (loadFingerprint)
	entries map[string]*Entry
	names   []string // sorted
}

// get resolves a variable name; the empty name resolves iff exactly one
// variable is served (the single-index convenience).
func (c *catalog) get(name string) (*Entry, error) {
	if c == nil || len(c.entries) == 0 {
		return nil, fmt.Errorf("serve: no indexes loaded")
	}
	if name == "" {
		if len(c.names) == 1 {
			return c.entries[c.names[0]], nil
		}
		return nil, fmt.Errorf("serve: %d variables served, request must name one of %s",
			len(c.names), strings.Join(c.names, ", "))
	}
	e, ok := c.entries[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown variable %q (serving %s)", name, strings.Join(c.names, ", "))
	}
	return e, nil
}

func newCatalog(entries []*Entry, step int, source, fprint string) *catalog {
	c := &catalog{step: step, source: source, fprint: fprint, entries: make(map[string]*Entry, len(entries))}
	for _, e := range entries {
		c.entries[e.Name] = e
		c.names = append(c.names, e.Name)
	}
	sort.Strings(c.names)
	return c
}

// newEntry parses one .isbm container's bytes into an Entry; both loaders
// read the file and hand its bytes here.
func newEntry(name, path string, step int, data []byte) (*Entry, error) {
	x, err := store.ReadIndex(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("serve: loading %s: %w", path, err)
	}
	return &Entry{
		Name: name, Path: path, Step: step, Bytes: int64(len(data)),
		N: x.N(), Bins: x.Bins(), Gen: x.Generation(), X: x,
	}, nil
}

// loadFiles builds a catalog from explicit "name=path" specs (a bare path
// takes its base name, extension stripped, as the variable name).
func loadFiles(specs []string) (*catalog, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("serve: no index files given")
	}
	var entries []*Entry
	seen := map[string]bool{}
	for _, spec := range specs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			path = spec
			name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		}
		if seen[name] {
			return nil, fmt.Errorf("serve: duplicate variable name %q", name)
		}
		seen[name] = true
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		e, err := newEntry(name, path, -1, data)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return newCatalog(entries, -1, strings.Join(specs, ","), filesFingerprint(entries)), nil
}

// filesFingerprint fingerprints an explicit file set by path and size,
// order-independently (Reload re-lists the specs in sorted-name order).
func filesFingerprint(entries []*Entry) string {
	parts := make([]string, 0, len(entries))
	for _, e := range entries {
		parts = append(parts, fmt.Sprintf("%s:%d", e.Path, e.Bytes))
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// loadDir builds a catalog from an in-situ run's output directory through
// the run's recovery reader (insitu.ReadRunLog). The journal is the source
// of truth — its select records are the commit markers, appended only
// after the step's artifacts are durable — so the newest committed step's
// select record names exactly the files that are safe to serve, mid-run or
// finished, each read through insitu.ReadArtifact against its journaled
// length and CRC32C.
func loadDir(dir string) (*catalog, error) {
	fprint, err := dirFingerprint(dir)
	if err != nil {
		return nil, err
	}
	log, err := insitu.ReadRunLog(dir)
	if err != nil {
		return nil, err
	}
	if log.Damage != nil {
		return nil, fmt.Errorf("serve: %s: %w", dir, log.Damage)
	}
	committed := log.Committed()
	if len(committed) == 0 {
		return nil, fmt.Errorf("serve: %s: journal has no committed step yet", dir)
	}
	newest := committed[len(committed)-1]
	var entries []*Entry
	for _, jf := range newest.Files {
		if !strings.HasSuffix(jf.Path, ".isbm") {
			return nil, fmt.Errorf("serve: %s holds %s summaries, not bitmap indexes (run with -method bitmaps)", dir, filepath.Ext(jf.Path))
		}
		data, err := insitu.ReadArtifact(dir, jf)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		e, err := newEntry(jf.Var, filepath.Join(dir, jf.Path), newest.Step, data)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return newCatalog(entries, newest.Step, dir, fprint), nil
}

// dirFingerprint captures the directory state a watcher polls: the journal
// grows by whole appended frames on every publish — the end record too,
// which follows the manifest — so its size changes exactly when there is
// something new to load.
func dirFingerprint(dir string) (string, error) {
	st, err := os.Stat(filepath.Join(dir, insitu.JournalName))
	if err != nil {
		return "", fmt.Errorf("serve: %s: %w", dir, err)
	}
	return fmt.Sprintf("journal=%d", st.Size()), nil
}
