package store_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"insitubits/internal/insitu"
	"insitubits/internal/store"
)

// A directory written before journals, whose index files carry tag-3
// (Dense) bins in the v2 and v3 layouts, verifies clean: fsck parses every
// file its manifest lists. The same directory with a malformed Dense payload
// does not.
func TestFsckLegacyDenseDirectory(t *testing.T) {
	x := store.LegacyDenseIndex(t)
	legacyDir := func(mutate func([]byte) []byte) string {
		dir := t.TempDir()
		m := insitu.Manifest{Workload: "legacy", Method: "bitmaps", Vars: []string{"v"}, Steps: 2, Selected: []int{0, 1}}
		for step, version := range []uint32{2, 3} {
			name := fmt.Sprintf("step%04d_v.isbm", step)
			data := store.LegacyDenseFile(x, version, mutate)
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
			m.Files = append(m.Files, insitu.ManifestFile{Step: step, Var: "v", Path: name, Bytes: int64(len(data))})
		}
		data, err := json.MarshalIndent(&m, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, insitu.ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	rep, err := insitu.Fsck(legacyDir(nil), insitu.FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.FilesChecked != 2 {
		t.Fatalf("legacy directory: checked %d files, issues %+v", rep.FilesChecked, rep.Issues)
	}

	rep, err = insitu.Fsck(legacyDir(func(p []byte) []byte { p[3] |= 0x80; return p }), insitu.FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 2 {
		t.Fatalf("malformed Dense payloads: issues %+v, want one per file", rep.Issues)
	}
	for _, is := range rep.Issues {
		if is.Class != insitu.DamageCorrupt {
			t.Fatalf("malformed Dense payload classed %q: %+v", is.Class, is)
		}
	}
}
