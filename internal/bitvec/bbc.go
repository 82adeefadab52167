package bitvec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// A byte-aligned bitmap codec in the spirit of BBC (Antoshenkov, DCC'95),
// which the paper cites alongside WAH as the other classic run-length bitmap
// compressor. Byte-granular runs compress sparse vectors tighter than
// 31-bit-granular WAH fills. Every walker reads the byte stream the same
// way, a run or a literal chunk at a time (bbcToken, step); what combines
// bitmaps goes through the flat form (ops.go).
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
	skip  skipTable
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

// encoders pools the encoders' output buffers: a stream is built in
// scratch and copied out at its exact size, so an encode that loses to the
// bound allocates nothing and concurrent encoders hold one buffer each.
var encoders = sync.Pool{New: func() any { return new(RunEncoder) }}

// bbcEncode is the one bitmap-to-BBC encoder. It works in the run domain:
// the WAH source's fills and 31-bit literals go straight into the byte
// stream (see bbcBits), never through an expanded n/8-byte buffer, so the
// cost is O(compressed words). The stream is the canonical one BBCFromBytes
// gives for the same bits. A positive limit bounds the output: nil is
// returned once the stream is known to reach limit bytes.
func bbcEncode(b Bitmap, limit int) *BBC {
	s := encoders.Get().(*RunEncoder)
	defer encoders.Put(s)
	w := &s.bbc
	w.reset(limit)
	e := bbcBits{w: w}
	v := ToVector(b) // the builders' WAH passes through
	left := v.nbits  // bits still to emit; runs are clipped and masked to it
	for _, word := range v.words {
		if left == 0 || w.over() {
			break
		}
		span := min(SegmentBits, left)
		if word&fillFlag != 0 {
			span = min(int(word&countMask)*SegmentBits, left)
			e.fill(word&fillValue != 0, span)
		} else {
			e.literal(word, span)
		}
		left -= span
	}
	if e.nacc > 0 {
		w.putByte(byte(e.acc))
	}
	if w.bytes(); w.over() {
		return nil
	}
	return s.stream(b.Len())
}

// bbcBits feeds a bit stream to a bbcWriter: whole bytes go out as they
// complete, fewer than eight bits wait in acc (LSB first).
type bbcBits struct {
	w    *bbcWriter
	acc  uint64
	nacc uint
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
	last := byte(0) // the last logical byte covered so far
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
			last = 0
			if tok == bbcOneRun {
				last = 0xFF
			}
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
			last = data[i-1]
		}
	}
	if covered != need {
		return nil, fmt.Errorf("bitvec: BBC stream covers %d bytes, want %d for %d bits", covered, need, nbits)
	}
	if rem := nbits % 8; rem != 0 && last&^(byte(1)<<uint(rem)-1) != 0 {
		return nil, fmt.Errorf("bitvec: BBC encoding has set bits beyond length %d", nbits)
	}
	return &BBC{data: append([]byte(nil), data...), nbits: nbits}, nil
}

// Bytes decompresses into a raw little-endian bit buffer.
func (b *BBC) Bytes() []byte {
	out := make([]byte, (b.nbits+7)/8)
	for i, at := 0, 0; i < len(b.data); {
		next, end, ok := b.step(i, at)
		if !ok {
			break
		}
		switch b.data[i] {
		case bbcZeroRun:
		case bbcOneRun:
			for j := at; j < end; j++ {
				out[j] = 0xFF
			}
		default: // the chunk's bytes end at next
			copy(out[at:end], b.data[next-(end-at):next])
		}
		i, at = next, end
	}
	return out
}

// Len returns the logical bit length.
func (b *BBC) Len() int { return b.nbits }

// Words returns the physical size in 32-bit words, rounded up.
func (b *BBC) Words() int { return (len(b.data) + 3) / 4 }

// SizeBytes returns the compressed size.
func (b *BBC) SizeBytes() int { return len(b.data) }

// Count returns the number of set bits, a run in O(1); the padding-zero
// invariant makes masking unnecessary (no one-run covers a padded byte).
func (b *BBC) Count() int {
	total := 0
	for i, at := 0, 0; i < len(b.data); {
		next, end, ok := b.step(i, at)
		if !ok {
			break
		}
		switch b.data[i] {
		case bbcZeroRun:
		case bbcOneRun:
			total += 8 * (end - at)
		default: // the chunk's bytes end at next
			total += countAll(b.data[next-(end-at) : next])
		}
		i, at = next, end
	}
	return total
}

// CountRange returns the number of set bits in [from, to), on the byte
// stream: it seeks to from (the skip table), a one-run counts its overlap in
// O(1), and a literal chunk popcounts the bytes it overlaps, masking the two
// boundary bytes.
func (b *BBC) CountRange(from, to int) int {
	if from < 0 || to > b.nbits || from > to {
		panic(fmt.Sprintf("bitvec: CountRange[%d,%d) out of range [0,%d]", from, to, b.nbits))
	}
	if from == to {
		return 0
	}
	total := 0
	for i, at := b.seek(from); i < len(b.data) && at<<3 < to; {
		next, end, ok := b.step(i, at)
		if !ok {
			break
		}
		s, e := max(from, at<<3), min(to, end<<3)
		switch b.data[i] {
		case bbcZeroRun:
		case bbcOneRun:
			total += e - s
		default: // the chunk's bytes end at next
			total += countBytes(b.data[next-(end-at):next], s-at<<3, e-at<<3)
		}
		i, at = next, end
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
	return bits.OnesCount8(buf[first]&head) + countAll(buf[first+1:last]) + bits.OnesCount8(buf[last]&tail)
}

// countAll counts the set bits of a byte buffer, eight bytes at a time.
func countAll(buf []byte) int {
	total := 0
	for ; len(buf) >= 8; buf = buf[8:] {
		total += bits.OnesCount64(binary.LittleEndian.Uint64(buf))
	}
	for _, v := range buf {
		total += bits.OnesCount8(v)
	}
	return total
}

// Iterate calls fn for each set bit in ascending order, over the WAH form.
func (b *BBC) Iterate(fn func(pos int) bool) { ToVector(b).Iterate(fn) }

// Runs streams the contents at 31-bit segment granularity, read off the
// byte stream a token at a time: the whole segments inside a run token are
// one fill however many bytes it covers, and a segment that holds a token
// boundary is a literal, or a fill when it is all zeros or all ones. Fills
// of one bit may come cut where tokens meet; merged, the runs are the WAH
// form's words. Nothing is expanded, so a walk costs O(encoded bytes).
func (b *BBC) Runs() RunReader { return &bbcRunReader{b: b} }

// bbcRunReader is a walk in segments: the token in hand (i its index, next
// the following one's, [at, end) the bytes it covers) and the next bit.
type bbcRunReader struct {
	b                     *BBC
	i, next, at, end, pos int
}

// NextRun reads the next segments; a malformed stream ends at its damage.
func (r *bbcRunReader) NextRun() (Run, bool) {
	n := r.b.nbits
	if r.pos >= n || !r.token(r.pos) {
		r.pos = n
		return Run{}, false
	}
	if tok := r.b.data[r.i]; tok == bbcZeroRun || tok == bbcOneRun {
		if k := min((min(r.end<<3, n)-r.pos)/SegmentBits, maxRun); k > 0 {
			r.pos += k * SegmentBits
			return Run{Fill: true, Bit: uint32(tok - bbcZeroRun), N: k}, true
		}
	}
	width, word := min(SegmentBits, n-r.pos), uint32(0)
	for p := r.pos; p < r.pos+width; {
		if !r.token(p) {
			r.pos = n
			return Run{}, false
		}
		q := min(r.end<<3, r.pos+width)
		switch r.b.data[r.i] {
		case bbcZeroRun:
		case bbcOneRun:
			word |= uint32(1)<<uint(q-r.pos) - uint32(1)<<uint(p-r.pos)
		default: // the chunk's bytes end at next; at most five hold [p, q)
			v, at := uint64(0), r.next-(r.end-r.at)+p>>3-r.at
			if at+8 <= len(r.b.data) {
				v = binary.LittleEndian.Uint64(r.b.data[at:])
			} else {
				for k, b := range r.b.data[at:r.next] {
					v |= uint64(b) << (8 * uint(k))
				}
			}
			word |= uint32(v>>uint(p&7)) & (uint32(1)<<uint(q-p) - 1) << uint(p-r.pos)
		}
		p = q
	}
	r.pos += width
	switch word {
	case 0:
		return Run{Fill: true, N: 1}, true
	case literalMask:
		return Run{Fill: true, Bit: 1, N: 1}, true
	}
	return Run{N: 1, Word: word}, true
}

// token moves to the token covering bit p, reporting false at a malformed
// one.
func (r *bbcRunReader) token(p int) bool {
	for r.end<<3 <= p {
		if r.next >= len(r.b.data) {
			return false
		}
		next, end, ok := r.b.step(r.next, r.end)
		if !ok {
			return false
		}
		r.i, r.at, r.next, r.end = r.next, r.end, next, end
	}
	return true
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
	runBits := 0
	for i, at := 0, 0; i < len(b.data); {
		next, end, ok := b.step(i, at)
		if !ok {
			break
		}
		switch b.data[i] {
		case bbcZeroRun:
			st.FillWords++
			st.ZeroFillWords++
			runBits += 8 * (end - at)
		case bbcOneRun:
			st.FillWords++
			st.OneFillWords++
			runBits += 8 * (end - at)
		default:
			st.LiteralWords += end - at
		}
		i, at = next, end
	}
	st.FilledSegments = runBits / SegmentBits
	return st
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
