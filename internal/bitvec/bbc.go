package bitvec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// A byte-aligned bitmap codec in the spirit of BBC (Antoshenkov, DCC'95),
// which the paper cites alongside WAH as the other classic run-length bitmap
// compressor. Byte-granular runs compress sparse vectors tighter than
// 31-bit-granular WAH fills. The kernels that read one bitmap — OrInto,
// WriteIDs, Count, CountRange — walk the byte stream a run or a literal
// chunk at a time; pairwise operations merge its runs through Runs (ops.go).
//
// Stream format (not the historical BBC wire format, but byte-aligned and
// run-length like it):
//
//	token 0x00..0x7F : literal chunk; (token+1) verbatim bytes follow
//	token 0x80       : zero run; uvarint byte count follows
//	token 0x81       : one  run; uvarint byte count follows
//
// Invariants: the runs cover exactly ceil(nbits/8) bytes, and the padding
// bits of the final byte beyond nbits are zero (so the kernels that walk
// literal bytes need no mask).

const (
	bbcZeroRun = 0x80
	bbcOneRun  = 0x81
	bbcMaxLit  = 0x80 // longest literal chunk
)

// BBC is a byte-aligned compressed bitmap.
type BBC struct {
	data  []byte
	nbits int
}

// BBCFromBytes compresses a raw little-endian bit buffer of nbits bits.
// Padding bits of the final byte must be zero.
func BBCFromBytes(raw []byte, nbits int) *BBC {
	if need := (nbits + 7) / 8; need != len(raw) {
		panic(fmt.Sprintf("bitvec: BBCFromBytes: %d bytes cannot hold exactly %d bits", len(raw), nbits))
	}
	if rem := nbits % 8; rem != 0 && len(raw) > 0 && raw[len(raw)-1]&^(byte(1)<<uint(rem)-1) != 0 {
		panic(fmt.Sprintf("bitvec: BBCFromBytes: set bits beyond length %d", nbits))
	}
	var out []byte
	i := 0
	for i < len(raw) {
		b := raw[i]
		if b == 0x00 || b == 0xFF {
			j := i + 1
			for j < len(raw) && raw[j] == b {
				j++
			}
			tok := byte(bbcZeroRun)
			if b == 0xFF {
				tok = bbcOneRun
			}
			out = append(out, tok)
			out = binary.AppendUvarint(out, uint64(j-i))
			i = j
			continue
		}
		j := i + 1
		for j < len(raw) && j-i < bbcMaxLit && raw[j] != 0x00 && raw[j] != 0xFF {
			j++
		}
		out = append(out, byte(j-i-1))
		out = append(out, raw[i:j]...)
		i = j
	}
	return &BBC{data: out, nbits: nbits}
}

// BBCFromBitmap re-encodes any bitmap as BBC. A *BBC passes through
// unchanged (bitmaps are immutable, so sharing is safe).
func BBCFromBitmap(b Bitmap) *BBC {
	if c, ok := b.(*BBC); ok {
		return c
	}
	return bbcEncode(b, 0)
}

// BBCIfSmaller re-encodes b as BBC when the stream takes fewer than limit
// bytes and returns nil otherwise, giving up as soon as the output reaches
// the limit. It is how the adaptive policy asks "is BBC smaller than this
// WAH vector" without materialising a losing encoding.
func BBCIfSmaller(b Bitmap, limit int) *BBC {
	if c, ok := b.(*BBC); ok {
		if c.SizeBytes() < limit {
			return c
		}
		return nil
	}
	if limit <= 0 {
		return nil
	}
	return bbcEncode(b, limit)
}

// bbcScratch pools the encoder's output buffers: a stream is built in
// scratch and copied out at its exact size, so an encode that loses to the
// bound allocates nothing and concurrent encoders hold one buffer each.
var bbcScratch = sync.Pool{New: func() any { return new(bbcWriter) }}

// bbcEncode is the one bitmap-to-BBC encoder. It works in the run domain:
// the WAH source's fills and 31-bit literals go straight into the byte
// stream (see bbcBits), never through an expanded n/8-byte buffer, so the
// cost is O(compressed words). The stream is the canonical one BBCFromBytes
// gives for the same bits. A positive limit bounds the output: nil is
// returned once the stream is known to reach limit bytes.
func bbcEncode(b Bitmap, limit int) *BBC {
	w := bbcScratch.Get().(*bbcWriter)
	defer bbcScratch.Put(w)
	w.reset(limit)
	e := bbcBits{w: w}
	v := ToVector(b) // the builders' WAH passes through
	left := v.nbits  // bits still to emit; runs are clipped and masked to it
	for _, word := range v.words {
		if left == 0 || w.over() {
			break
		}
		r := Run{N: 1, Word: word}
		if word&fillFlag != 0 {
			r = Run{Fill: true, Bit: word & fillValue >> 30, N: int(word & countMask)}
		}
		left -= e.put(r, left)
	}
	if e.nacc > 0 {
		w.putByte(byte(e.acc))
	}
	data := w.bytes()
	if w.over() {
		return nil
	}
	return &BBC{data: append(make([]byte, 0, len(data)), data...), nbits: b.Len()}
}

// bbcBits feeds a bit stream to a bbcWriter: whole bytes go out as they
// complete, fewer than eight bits wait in acc (LSB first).
type bbcBits struct {
	w    *bbcWriter
	acc  uint64
	nacc uint
}

// put emits one run of the source, clipped to the left bits the bitmap
// still has, and returns how many bits that was.
func (e *bbcBits) put(r Run, left int) int {
	if r.Fill {
		span := min(r.N*SegmentBits, left)
		e.fill(r.Bit != 0, span)
		return span
	}
	width := min(SegmentBits, left)
	e.literal(r.Word, width)
	return width
}

// literal emits the low width (≤ 31) bits of word.
func (e *bbcBits) literal(word uint32, width int) {
	e.acc |= uint64(word&(uint32(1)<<uint(width)-1)) << e.nacc
	e.nacc += uint(width)
	for ; e.nacc >= 8; e.nacc -= 8 {
		e.w.putByte(byte(e.acc))
		e.acc >>= 8
	}
}

// fill emits span identical bits: it tops up the byte in flight, hands the
// whole bytes to the writer as one run, and keeps the remainder pending.
func (e *bbcBits) fill(one bool, span int) {
	fb := uint64(0)
	if one {
		fb = 0xFF
	}
	if e.nacc > 0 {
		k := min(8-int(e.nacc), span)
		e.acc |= fb & (1<<uint(k) - 1) << e.nacc
		e.nacc += uint(k)
		span -= k
		if e.nacc < 8 {
			return
		}
		e.w.putByte(byte(e.acc))
		e.acc, e.nacc = 0, 0
	}
	e.w.putRun(byte(fb), span/8)
	e.acc, e.nacc = fb&(1<<uint(span%8)-1), uint(span%8)
}

// RawBytes exposes the encoded stream (read-only; used by store).
func (b *BBC) RawBytes() []byte { return b.data }

// BBCFromRaw reconstructs a BBC bitmap from a stored stream, validating the
// token structure, byte coverage, and final-byte padding; used by the store
// reader on untrusted input.
func BBCFromRaw(data []byte, nbits int) (*BBC, error) {
	if nbits < 0 {
		return nil, fmt.Errorf("bitvec: negative bit length %d", nbits)
	}
	need := (nbits + 7) / 8
	covered := 0
	i := 0
	for i < len(data) {
		tok := data[i]
		i++
		switch tok {
		case bbcZeroRun, bbcOneRun:
			n, k := binary.Uvarint(data[i:])
			if k <= 0 {
				return nil, fmt.Errorf("bitvec: BBC run at byte %d has malformed count", i-1)
			}
			if n == 0 {
				return nil, fmt.Errorf("bitvec: BBC zero-length run at byte %d", i-1)
			}
			if n > uint64(need-covered) {
				return nil, fmt.Errorf("bitvec: BBC run of %d bytes overflows %d-bit bitmap", n, nbits)
			}
			i += k
			covered += int(n)
		default:
			n := int(tok) + 1
			if i+n > len(data) {
				return nil, fmt.Errorf("bitvec: BBC literal chunk at byte %d truncated", i-1)
			}
			if n > need-covered {
				return nil, fmt.Errorf("bitvec: BBC literal of %d bytes overflows %d-bit bitmap", n, nbits)
			}
			i += n
			covered += n
		}
	}
	if covered != need {
		return nil, fmt.Errorf("bitvec: BBC stream covers %d bytes, want %d for %d bits", covered, need, nbits)
	}
	b := &BBC{data: append([]byte(nil), data...), nbits: nbits}
	if rem := nbits % 8; rem != 0 && need > 0 {
		// The padding-zero invariant: check the final byte without decoding
		// the rest of the stream.
		if last := b.byteAt(need - 1); last&^(byte(1)<<uint(rem)-1) != 0 {
			return nil, fmt.Errorf("bitvec: BBC encoding has set bits beyond length %d", nbits)
		}
	}
	return b, nil
}

// byteAt decodes the logical byte at index idx (validated streams only).
func (b *BBC) byteAt(idx int) byte {
	var t bbcTokIter
	t.reset(b.data)
	pos := 0
	for t.valid() {
		if idx < pos+t.n {
			if t.fill {
				return t.fb
			}
			return t.lit[t.lp+idx-pos]
		}
		pos += t.n
		t.consume(t.n)
	}
	return 0
}

// Bytes decompresses into a raw little-endian bit buffer.
func (b *BBC) Bytes() []byte {
	out := make([]byte, 0, (b.nbits+7)/8)
	var t bbcTokIter
	t.reset(b.data)
	for t.valid() {
		if t.fill {
			for j := 0; j < t.n; j++ {
				out = append(out, t.fb)
			}
		} else {
			out = append(out, t.lit[t.lp:t.lp+t.n]...)
		}
		t.consume(t.n)
	}
	return out
}

// Len returns the logical bit length.
func (b *BBC) Len() int { return b.nbits }

// Words returns the physical size in 32-bit words, rounded up.
func (b *BBC) Words() int { return (len(b.data) + 3) / 4 }

// SizeBytes returns the compressed size.
func (b *BBC) SizeBytes() int { return len(b.data) }

// Count returns the number of set bits, counting fill runs in O(1); the
// padding-zero invariant makes masking unnecessary.
func (b *BBC) Count() int {
	total := 0
	var t bbcTokIter
	t.reset(b.data)
	for t.valid() {
		if t.fill {
			if t.fb == 0xFF {
				total += 8 * t.n
			}
		} else {
			for _, v := range t.lit[t.lp : t.lp+t.n] {
				total += bits.OnesCount8(v)
			}
		}
		t.consume(t.n)
	}
	if rem := b.nbits % 8; rem != 0 {
		// A one-fill may cover the padded final byte; subtract its padding.
		need := (b.nbits + 7) / 8
		total -= bits.OnesCount8(b.byteAt(need-1) &^ (byte(1)<<uint(rem) - 1))
	}
	return total
}

// CountRange returns the number of set bits in [from, to), on the byte
// stream: runs and chunks before from are skipped whole, a one-run counts
// its overlap in O(1), and a literal chunk popcounts the bytes it overlaps,
// masking the two boundary bytes.
func (b *BBC) CountRange(from, to int) int {
	if from < 0 || to > b.nbits || from > to {
		panic(fmt.Sprintf("bitvec: CountRange[%d,%d) out of range [0,%d]", from, to, b.nbits))
	}
	total := 0
	var t bbcTokIter
	t.reset(b.data)
	lo := 0 // first bit of the current run or chunk
	for t.valid() && lo < to {
		hi := lo + 8*t.n
		if s, e := max(from, lo), min(to, hi); s < e {
			switch {
			case !t.fill:
				total += countBytes(t.lit[t.lp:t.lp+t.n], s-lo, e-lo)
			case t.fb != 0:
				total += e - s
			}
		}
		lo = hi
		t.consume(t.n)
	}
	return total
}

// countBytes counts the set bits [s, e) of a little-endian bit buffer, s < e.
func countBytes(buf []byte, s, e int) int {
	first, last := s>>3, (e-1)>>3
	head, tail := byte(0xFF)<<uint(s&7), byte(0xFF)>>uint(7-(e-1)&7)
	if first == last {
		return bits.OnesCount8(buf[first] & head & tail)
	}
	total := bits.OnesCount8(buf[first]&head) + bits.OnesCount8(buf[last]&tail)
	mid := buf[first+1 : last]
	for ; len(mid) >= 8; mid = mid[8:] {
		total += bits.OnesCount64(binary.LittleEndian.Uint64(mid))
	}
	for _, v := range mid {
		total += bits.OnesCount8(v)
	}
	return total
}

// Iterate calls fn for each set bit in ascending order.
func (b *BBC) Iterate(fn func(pos int) bool) { genericIterate(b, fn) }

// Equal reports whether two bitmaps have identical logical contents.
func (b *BBC) Equal(o Bitmap) bool {
	if ob, ok := o.(*BBC); ok {
		if b.nbits != ob.nbits {
			return false
		}
		if bytes.Equal(b.data, ob.data) {
			return true
		}
		// Encodings may differ physically (split runs); fall through.
	}
	return genericEqual(b, o)
}

// Stats describes the physical composition. For the byte-aligned stream the
// WAH word tallies don't apply; PhysicalBytes carries the true footprint.
// Stats walks the token stream once. The word-kind tallies are
// codec-native: FillWords counts run tokens (not 32-bit words),
// LiteralWords counts literal payload bytes, and FilledSegments is the
// 31-bit segments the run bytes cover (rounded down — the figure answers
// "how many segment-sized steps did compression skip").
func (b *BBC) Stats() Stats {
	st := Stats{
		Bits:          b.nbits,
		SetBits:       b.Count(),
		PhysicalBytes: b.SizeBytes(),
	}
	var t bbcTokIter
	t.reset(b.data)
	runBits := 0
	for t.valid() {
		if t.fill {
			st.FillWords++
			if t.fb == 0 {
				st.ZeroFillWords++
			} else {
				st.OneFillWords++
			}
			runBits += 8 * t.n
		} else {
			st.LiteralWords += t.n
		}
		t.consume(t.n)
	}
	st.FilledSegments = runBits / SegmentBits
	return st
}

// Runs streams the contents at 31-bit segment granularity directly from the
// byte stream: fill runs covering ≥31 homogeneous bits become fill runs
// without decoding, and segment boundaries are assembled through a bit
// accumulator.
func (b *BBC) Runs() RunReader {
	r := &bbcRunReader{segsLeft: (b.nbits + SegmentBits - 1) / SegmentBits}
	r.t.reset(b.data)
	return r
}

type bbcRunReader struct {
	t        bbcTokIter
	acc      uint64 // pending bits, LSB first
	nacc     uint   // number of pending bits
	segsLeft int
}

func (r *bbcRunReader) NextRun() (Run, bool) {
	if r.segsLeft == 0 {
		return Run{}, false
	}
	// Fill fast path: the pending bits (if any) agree with the current byte
	// run's fill value, and together they cover at least one full segment.
	if r.t.valid() && r.t.fill {
		bit := uint32(0)
		if r.t.fb == 0xFF {
			bit = 1
		}
		homogeneous := r.nacc == 0 ||
			(bit == 0 && r.acc == 0) ||
			(bit == 1 && r.acc == uint64(1)<<r.nacc-1)
		if homogeneous {
			avail := int(r.nacc) + 8*r.t.n
			segs := avail / SegmentBits
			if segs > r.segsLeft {
				segs = r.segsLeft
			}
			if bit == 1 && r.segsLeft*SegmentBits > avail+8*r.remStreamBytes() {
				// Guard (unreachable for valid streams): never let a one-fill
				// cover segments the stream doesn't back.
				segs = 0
			}
			if segs > 0 {
				used := segs*SegmentBits - int(r.nacc) // bits taken from the byte run
				fullBytes := used / 8
				remBits := used % 8
				r.t.consume(fullBytes)
				r.acc, r.nacc = 0, 0
				if remBits > 0 {
					r.acc = uint64(r.t.cur() >> uint(remBits))
					r.nacc = 8 - uint(remBits)
					r.t.consume(1)
				}
				r.segsLeft -= segs
				return Run{Fill: true, Bit: bit, N: segs}, true
			}
		}
	}
	w := r.readBits(SegmentBits)
	r.segsLeft--
	if w == 0 {
		return Run{Fill: true, N: 1}, true
	}
	return Run{N: 1, Word: w}, true
}

// remStreamBytes reports the bytes remaining in the token stream beyond the
// current run (conservative; only used by the one-fill guard).
func (r *bbcRunReader) remStreamBytes() int {
	return len(r.t.data) - r.t.i
}

// readBits pulls n (≤ 31) bits LSB-first, zero-padding past the stream end.
func (r *bbcRunReader) readBits(n uint) uint32 {
	for r.nacc < n {
		var b byte
		if r.t.valid() {
			b = r.t.cur()
			r.t.consume(1)
		}
		r.acc |= uint64(b) << r.nacc
		r.nacc += 8
	}
	v := uint32(r.acc & (uint64(1)<<n - 1))
	r.acc >>= n
	r.nacc -= n
	return v
}

// bbcToken decodes the token at data[i] for the kernels that walk one stream
// a whole token at a time (OrInto, the masked id kernels): the n bytes it
// covers and the index just past its header — where the n bytes of a literal
// chunk lie, which the caller checks against len(data). It is small enough
// to inline, so a walker keeps its cursor in registers: a literal chunk is
// its length byte, a run a count of one byte when below 128. For a longer
// count n is -1 and the caller asks bbcLongRun at next.
func bbcToken(data []byte, i int) (n, next int) {
	if tok := data[i]; tok != bbcZeroRun && tok != bbcOneRun {
		return int(tok) + 1, i + 1
	}
	if i+1 < len(data) && data[i+1] < 0x80 {
		return int(data[i+1]), i + 2
	}
	return -1, i + 1
}

// bbcLongRun decodes the run count at data[i:]. n is 0 for a count that is
// malformed, cut short or beyond any bitmap's byte length: a walker stops
// there, as it does on a zero-length run (which no encoder writes).
func bbcLongRun(data []byte, i int) (n, next int) {
	v, k := binary.Uvarint(data[i:])
	if k <= 0 || v > math.MaxInt {
		return 0, i
	}
	return int(v), i + k
}

// bbcPiece loads the head of the n literal bytes at data[i:], whose first is
// logical byte a of the bitmap: the k bytes that fall into a's flat word, at
// their place in it. One unaligned load when the stream has eight bytes left
// (the excess, later tokens, is masked off), byte by byte at its very end.
func bbcPiece(data []byte, i, n, a int) (w uint64, k int) {
	k = min(8-a&7, n)
	if i+8 <= len(data) {
		w = binary.LittleEndian.Uint64(data[i:]) & (^uint64(0) >> uint(64-8*k))
	} else {
		for j, v := range data[i : i+k] {
			w |= uint64(v) << (8 * uint(j))
		}
	}
	return w << (uint(a&7) * 8), k
}

// bbcTokIter walks the token stream as byte-granular runs: a fill run of n
// identical bytes, or a literal chunk viewed byte by byte.
type bbcTokIter struct {
	data []byte
	i    int
	fill bool
	fb   byte   // fill byte (0x00 or 0xFF) when fill
	n    int    // remaining bytes in the current run
	lit  []byte // current literal chunk when !fill
	lp   int    // cursor within lit
}

func (t *bbcTokIter) reset(data []byte) {
	t.data = data
	t.i = 0
	t.n = 0
	t.load()
}

func (t *bbcTokIter) load() {
	t.n = 0
	for t.i < len(t.data) && t.n == 0 {
		tok := t.data[t.i]
		t.i++
		switch tok {
		case bbcZeroRun, bbcOneRun:
			v, k := binary.Uvarint(t.data[t.i:])
			if k <= 0 {
				// Validated streams never hit this; stop rather than spin.
				t.i = len(t.data)
				return
			}
			t.i += k
			t.fill = true
			t.fb = 0x00
			if tok == bbcOneRun {
				t.fb = 0xFF
			}
			t.n = int(v)
		default:
			cnt := int(tok) + 1
			if t.i+cnt > len(t.data) {
				t.i = len(t.data)
				return
			}
			t.fill = false
			t.lit = t.data[t.i : t.i+cnt]
			t.lp = 0
			t.n = cnt
			t.i += cnt
		}
	}
}

func (t *bbcTokIter) valid() bool { return t.n > 0 }

func (t *bbcTokIter) cur() byte {
	if t.fill {
		return t.fb
	}
	return t.lit[t.lp]
}

func (t *bbcTokIter) consume(k int) {
	t.n -= k
	if !t.fill {
		t.lp += k
	}
	if t.n <= 0 {
		t.load()
	}
}

// bbcWriter re-encodes a byte stream with run coalescing; a positive limit
// lets a bounded encode watch the size (see over).
type bbcWriter struct {
	out   []byte
	lit   []byte
	fill  byte
	run   int
	limit int
}

// over reports whether the flushed output has reached the limit. Pending
// bytes only ever add to it, so a true is final and an encode may stop
// early; after bytes() nothing is pending and the answer is exact.
func (w *bbcWriter) over() bool { return w.limit > 0 && len(w.out) >= w.limit }

// reset empties the writer for a new stream, keeping its buffers.
func (w *bbcWriter) reset(limit int) {
	*w = bbcWriter{out: w.out[:0], lit: w.lit[:0], limit: limit}
}

func (w *bbcWriter) putByte(b byte) {
	if b == 0x00 || b == 0xFF {
		w.putRun(b, 1)
		return
	}
	w.flushRun()
	w.lit = append(w.lit, b)
	if len(w.lit) == bbcMaxLit {
		w.flushLit()
	}
}

func (w *bbcWriter) putRun(fb byte, n int) {
	if n <= 0 {
		return
	}
	w.flushLit()
	if w.run > 0 && w.fill == fb {
		w.run += n
		return
	}
	w.flushRun()
	w.fill = fb
	w.run = n
}

func (w *bbcWriter) flushLit() {
	if len(w.lit) == 0 {
		return
	}
	w.out = append(w.out, byte(len(w.lit)-1))
	w.out = append(w.out, w.lit...)
	w.lit = w.lit[:0]
}

func (w *bbcWriter) flushRun() {
	if w.run == 0 {
		return
	}
	tok := byte(bbcZeroRun)
	if w.fill == 0xFF {
		tok = bbcOneRun
	}
	w.out = append(w.out, tok)
	w.out = binary.AppendUvarint(w.out, uint64(w.run))
	w.run = 0
}

func (w *bbcWriter) bytes() []byte {
	w.flushLit()
	w.flushRun()
	return w.out
}

var _ Bitmap = (*BBC)(nil)
