package bitvec

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBBCRoundTripProperty(t *testing.T) {
	f := func(bs boolsValue) bool {
		raw := make([]byte, (len(bs)+7)/8)
		for i, b := range bs {
			if b {
				raw[i/8] |= 1 << uint(i%8)
			}
		}
		c := BBCFromBytes(raw, len(bs))
		return bytes.Equal(c.Bytes(), raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBBCCountMatchesVector(t *testing.T) {
	f := func(bs boolsValue) bool {
		v := FromBools(bs)
		c := BBCFromBitmap(v)
		return c.Count() == v.Count() && c.Len() == v.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBBCCompressesSparse(t *testing.T) {
	n := 1 << 16
	raw := make([]byte, n/8)
	raw[0] = 1
	raw[len(raw)-1] = 0x80
	c := BBCFromBytes(raw, n)
	if c.SizeBytes() > 32 {
		t.Fatalf("sparse BBC size %dB, expected tiny", c.SizeBytes())
	}
	if c.Count() != 2 {
		t.Fatalf("Count=%d want 2", c.Count())
	}
}

func TestBBCLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BBCFromBytes(make([]byte, 2), 100)
}

func TestBBCLiteralChunkLimit(t *testing.T) {
	// >128 consecutive non-run bytes must split into multiple literal chunks.
	r := rand.New(rand.NewSource(9))
	raw := make([]byte, 400)
	for i := range raw {
		b := byte(r.Intn(254)) + 1
		if b == 0xFF {
			b = 0xFE
		}
		raw[i] = b
	}
	c := BBCFromBytes(raw, len(raw)*8)
	if !bytes.Equal(c.Bytes(), raw) {
		t.Fatal("long literal round trip failed")
	}
}

// TestBBCWalkersStopOnMalformedStreams: the walkers that decode tokens in
// place (OrInto, the masked id kernels, CountRange, and the skip table's
// build and seek) and the readers of a whole bitmap built on them (Count,
// Stats, Bytes, WriteIDs, ToVector, Runs, Iterate) are handed streams no
// encoder writes and BBCFromRaw rejects — cut short, overlong, with counts
// that do not parse — through the unexported constructor. They must return
// having touched nothing outside their buffers, which are exactly as long
// as the bitmap's length asks for (an access past them panics); what they
// decoded before the damage is not checked. Each stream is walked whole and
// from later words, as a 200-bit bitmap and again after a 999-byte zero
// run, as an 8192-bit one, where a window past the first block seeks
// through the skip table into the damaged tail. Random streams follow:
// those BBCFromRaw accepts must decode to their own Bytes() in every window
// and through every reader.
func TestBBCWalkersStopOnMalformedStreams(t *testing.T) {
	const short, long = 200, 2 * skipBlock   // both 25 bytes past the prefix
	prefix := []byte{bbcZeroRun, 0xE7, 0x07} // a zero run of 999 bytes
	// walk returns what OrInto decoded from each window's first word, and
	// the bitmap as each whole-bitmap reader sees it, in flat words.
	walk := func(data []byte, nbits int) (windows [][]uint64, whole map[string][]uint64) {
		nw := FlatWords(nbits)
		full := make([]uint64, nw)
		SetFlatRange(full, 0, nbits)
		ids := make([]int32, nbits)
		for _, w0 := range []int{0, nw / 2, 999 / 8, nw - 1} {
			if w0 >= nw {
				windows = append(windows, nil)
				continue
			}
			b := &BBC{data: data, nbits: nbits}
			dst := make([]uint64, nw)
			b.OrInto(dst, w0, nw)
			windows = append(windows, dst)
			for p := range ids {
				ids[p] = NoID[int32]()
			}
			CountMasked(b, full, w0)
			WriteIDsMasked(b, full, ids, 0, w0)
			TallyMasked(b, full, ids, make([]int, 1), w0)
			b.CountRange(w0<<6, nbits)
		}
		b := &BBC{data: data, nbits: nbits}
		whole = map[string][]uint64{"count": {uint64(b.Count())}, "stats": {uint64(b.Stats().SetBits)}}
		bytes := make([]uint64, nw)
		for j, v := range b.Bytes() {
			bytes[j>>3] |= uint64(v) << (uint(j) & 7 * 8)
		}
		whole["Bytes"] = bytes
		idBits := make([]uint64, nw)
		WriteIDs(b, ids, 1)
		for p, id := range ids {
			if id == 1 {
				idBits[p>>6] |= 1 << uint(p&63)
			}
		}
		whole["WriteIDs"] = idBits
		whole["ToVector"] = flatOf(Bools(ToVector(b)))
		runBits, pos := make([]uint64, nw), 0
		for rd := b.Runs(); ; {
			r, ok := rd.NextRun()
			if !ok {
				break
			}
			for p := pos; p < min(pos+r.N*SegmentBits, nbits); p++ {
				if r.Fill && r.Bit == 1 || !r.Fill && r.Word>>uint(p-pos)&1 == 1 {
					runBits[p>>6] |= 1 << uint(p&63)
				}
			}
			pos += r.N * SegmentBits
		}
		whole["Runs"] = runBits
		iterBits := make([]uint64, nw)
		b.Iterate(func(p int) bool { iterBits[p>>6] |= 1 << uint(p&63); return true })
		whole["Iterate"] = iterBits
		return windows, whole
	}
	huge := []byte{bbcOneRun, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F} // a count of 2^63-1
	for name, data := range map[string][]byte{
		"literal cut short":         {4, 0xA5, 0x5A},
		"literal past the bitmap":   {bbcZeroRun, 24, 1, 0xA5, 0x5A},
		"long literal token":        {0xFE, 1, 2, 3},
		"run with no count":         {2, 1, 2, 3, bbcOneRun},
		"run count cut short":       {bbcOneRun, 0x80},
		"run count of eleven bytes": {bbcOneRun, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"run count beyond an int":   append(huge[:9:9], 0xFF, 0x01),
		"run of 2^63-1 bytes":       huge,
		"literals around that run":  append(append([]byte{0, 0xA5}, huge...), 0, 0xA5),
		"run past the bitmap":       {bbcOneRun, 26},
		"zero-length run":           {bbcOneRun, 0, bbcOneRun, 25},
		"stream past the bitmap":    {bbcOneRun, 25, 0, 0xFF},
	} {
		for _, c := range []struct {
			data  []byte
			nbits int
		}{{data, short}, {append(prefix[:3:3], data...), long}} {
			if _, err := BBCFromRaw(c.data, c.nbits); err == nil {
				t.Errorf("%s (%d bits): BBCFromRaw accepted the stream", name, c.nbits)
			}
			walk(c.data, c.nbits)
		}
	}
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 20000; i++ {
		data := make([]byte, 1+r.Intn(12))
		for j := range data {
			switch r.Intn(3) {
			case 0:
				data[j] = byte(r.Intn(256))
			case 1:
				data[j] = bbcZeroRun + byte(r.Intn(2))
			default:
				data[j] = byte(r.Intn(26))
			}
		}
		for _, c := range []struct {
			data  []byte
			nbits int
		}{{data, short}, {append(prefix[:3:3], data...), long}} {
			got, whole := walk(c.data, c.nbits)
			if _, err := BBCFromRaw(c.data, c.nbits); err != nil {
				continue
			}
			want := whole["Bytes"]
			for name, w := range whole {
				if name == "count" || name == "stats" {
					if w[0] != uint64(CountFlat(want)) {
						t.Fatalf("stream %x (%d bits): %s %d, its bytes hold %d", c.data, c.nbits, name, w[0], CountFlat(want))
					}
				} else if !slices.Equal(w, want) {
					t.Fatalf("stream %x (%d bits): %s = %x, its bytes are %x", c.data, c.nbits, name, w, want)
				}
			}
			for k, w0 := range []int{0, len(want) / 2, 999 / 8, len(want) - 1} {
				if got[k] == nil {
					continue
				}
				if !slices.Equal(got[k][w0:], want[w0:]) || slices.ContainsFunc(got[k][:w0], func(w uint64) bool { return w != 0 }) {
					t.Fatalf("stream %x (%d bits): OrInto from word %d = %x, its bytes are %x", c.data, c.nbits, w0, got[k], want)
				}
			}
		}
	}
}
