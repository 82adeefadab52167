// Package store defines the on-disk formats: a compact binary container for
// compressed bitmap indices (what the in-situ pipeline writes instead of raw
// data) and a raw float64 array format for the full-data baseline. Both are
// little-endian, validated on read, and checksummed with CRC32C so torn
// writes and flipped bits are detected instead of silently decoded. Each
// reader accepts exactly the one layout its writer produces.
// docs/FORMATS.md specifies both byte-by-byte; docs/ROBUSTNESS.md covers
// the crash model.
//
// Index file layout (all integers little-endian):
//
//	magic   "ISBM" (4 bytes)
//	version u32 (3)
//	n       u64  elements indexed
//	bins    u32
//	edges   (bins+1) × f64   bin boundaries (reconstructs the binning)
//	per bin:
//	    codec  u8            codec tag (1=WAH, 2=BBC)
//	    nbytes u32
//	    nbytes × u8          encoded payload
//	    crc    u32           CRC32C of codec ‖ nbytes ‖ payload
//	footer:
//	    magic "ISCK" (4 bytes)
//	    crc   u32            CRC32C of every byte before the footer
//
// The raw-array format closes with the same footer; see WriteRaw.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"insitubits/internal/binning"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
	"insitubits/internal/index"
)

const (
	indexMagic = "ISBM"
	rawMagic   = "ISRW"
	// footerMagic opens the whole-file checksum footer of the index and
	// raw containers.
	footerMagic = "ISCK"
	// version is the one index container version WriteIndex produces and
	// ReadIndex accepts.
	version = 3
	// maxPayload bounds a single bin's byte count on a read.
	maxPayload = 1 << 30
	// payloadChunk is the most a bin's read allocates ahead of the bytes it
	// has read.
	payloadChunk = 1 << 20
	// footerSize is the byte size of the "ISCK" + crc footer.
	footerSize = 8
)

// WriteIndex serializes an index in the v3 format, preserving each bin's
// codec and protecting every region with CRC32C checksums (one per bin,
// one whole-file footer). It returns the number of bytes written so
// callers can account I/O; the return always equals IndexSize.
func WriteIndex(w io.Writer, x *index.Index) (int64, error) {
	defer timeIO(tel.writeNs)()
	bw := bufio.NewWriter(w)
	cw := &sumWriter{w: bw}
	if err := writeHeader(cw, x); err != nil {
		return cw.n, err
	}
	for b := 0; b < x.Bins(); b++ {
		cw.sect = 0
		if err := writeBin(cw, x, b); err != nil {
			return cw.n, err
		}
		if err := binary.Write(cw, binary.LittleEndian, cw.sect); err != nil {
			return cw.n, err
		}
	}
	fileCRC := cw.file
	if _, err := io.WriteString(cw, footerMagic); err != nil {
		return cw.n, err
	}
	if err := binary.Write(cw, binary.LittleEndian, fileCRC); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	tel.indexesWritten.Inc()
	tel.bytesWritten.Add(cw.n)
	return cw.n, nil
}

// writeBin emits one bin record's codec tag, payload length and payload;
// WriteIndex follows it with the record's checksum.
func writeBin(cw *sumWriter, x *index.Index, b int) error {
	bm := x.Bitmap(b)
	id := codec.Of(bm)
	if !id.Concrete() {
		return fmt.Errorf("store: bin %d has unknown codec", b)
	}
	payload := codec.Payload(bm)
	if _, err := cw.Write([]byte{byte(id)}); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, uint32(len(payload))); err != nil {
		return err
	}
	_, err := cw.Write(payload)
	return err
}

func writeHeader(w io.Writer, x *index.Index) error {
	if _, err := io.WriteString(w, indexMagic); err != nil {
		return err
	}
	for _, v := range []any{uint32(version), uint64(x.N()), uint32(x.Bins())} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, binning.Edges(x.Mapper()))
}

// IndexSize returns the exact byte size WriteIndex will produce,
// letting the pipeline account modelled I/O without serializing.
func IndexSize(x *index.Index) int64 {
	n := int64(4 + 4 + 8 + 4) // magic, version, n, bins
	n += int64(8 * (x.Bins() + 1))
	for b := 0; b < x.Bins(); b++ {
		n += 1 + 4 + int64(x.Bitmap(b).SizeBytes()) + 4 // tag, len, payload, crc
	}
	return n + footerSize
}

// validEdges rejects edges that would build a broken mapper: every edge
// must be finite and the sequence strictly increasing. (binning.NewExplicit
// re-checks monotonicity, but the store rejects non-finite values that a
// NaN/Inf-laden file would otherwise smuggle into query arithmetic.)
func validEdges(edges []float64) error {
	for i, e := range edges {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return fmt.Errorf("store: bin edge %d is not finite (%v)", i, e)
		}
		if i > 0 && edges[i-1] >= e {
			return fmt.Errorf("store: bin edges not strictly increasing at %d (%v >= %v)", i, edges[i-1], e)
		}
	}
	return nil
}

// ReadIndex parses an index written by WriteIndex: version 3 only. Magic
// and version are read unbuffered, so another file kind or a retired
// layout (v1, v2) is refused after 8 bytes. Every per-bin checksum and the
// whole-file footer are verified — a mismatch returns an error wrapping
// ErrChecksum, never a silently wrong index — and trailing bytes after the
// container are rejected. The header's shape is checked before anything it
// sizes is allocated, and the bitmaps go through index.FromParts, which
// refuses bins that do not tile the elements.
func ReadIndex(r io.Reader) (*index.Index, error) {
	defer timeIO(tel.readNs)()
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("store: reading header: %w", err)
	}
	if string(head[:4]) != indexMagic {
		return nil, fmt.Errorf("store: bad magic %q, not a bitmap index file", head[:4])
	}
	if ver := binary.LittleEndian.Uint32(head[4:]); ver != version {
		return nil, fmt.Errorf("store: unsupported index version %d", ver)
	}
	cr := &sumReader{r: bufio.NewReader(r), file: CRC32C(head[:])}
	var n uint64
	if err := binary.Read(cr, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	var bins uint32
	if err := binary.Read(cr, binary.LittleEndian, &bins); err != nil {
		return nil, err
	}
	if err := index.CheckShape(n, int(bins)); err != nil { // before the edges are allocated
		return nil, fmt.Errorf("store: %w", err)
	}
	edges := make([]float64, bins+1)
	if err := binary.Read(cr, binary.LittleEndian, edges); err != nil {
		return nil, err
	}
	if err := validEdges(edges); err != nil {
		return nil, err
	}
	mapper, err := binning.NewExplicit(edges)
	if err != nil {
		return nil, fmt.Errorf("store: invalid edges: %w", err)
	}
	vecs := make([]bitvec.Bitmap, bins)
	for b := range vecs {
		if vecs[b], err = readBin(cr, int(n)); err != nil {
			return nil, fmt.Errorf("store: bin %d: %w", b, err)
		}
	}
	if err := readFooter(cr); err != nil {
		return nil, err
	}
	if err := expectEOF(cr); err != nil {
		return nil, err
	}
	x, err := index.FromParts(mapper, vecs, int(n))
	if err == nil {
		tel.indexesRead.Inc()
		tel.bytesRead.Add(IndexSize(x))
	}
	return x, err
}

// readFooter consumes and verifies the "ISCK" + CRC32C whole-file footer;
// cr's running digest must equal the stored value.
func readFooter(cr *sumReader) error {
	fileCRC := cr.file
	var magic [4]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return fmt.Errorf("store: reading checksum footer: %w", err)
	}
	if string(magic[:]) != footerMagic {
		return fmt.Errorf("store: bad footer magic %q: %w", magic, ErrChecksum)
	}
	var stored uint32
	if err := binary.Read(cr, binary.LittleEndian, &stored); err != nil {
		return fmt.Errorf("store: reading footer checksum: %w", err)
	}
	if stored != fileCRC {
		return fmt.Errorf("store: file checksum %08x, footer says %08x: %w", fileCRC, stored, ErrChecksum)
	}
	return nil
}

// expectEOF rejects trailing bytes: every container ends exactly where its
// layout says, so appended garbage (or a mislabelled version) cannot pass.
func expectEOF(r io.Reader) error {
	var one [1]byte
	if _, err := r.Read(one[:]); err != io.EOF {
		return fmt.Errorf("store: trailing data after container")
	}
	return nil
}

// readBin parses one codec-tagged bin record and the CRC32C that follows
// it, which is verified before the payload is decoded, so a flipped bit can
// never reach the codec parsers as plausible input.
func readBin(cr *sumReader, nbits int) (bitvec.Bitmap, error) {
	cr.sect = 0
	var tag [1]byte
	if _, err := io.ReadFull(cr, tag[:]); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	var nbytes uint32
	if err := binary.Read(cr, binary.LittleEndian, &nbytes); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if nbytes > maxPayload {
		return nil, fmt.Errorf("declares %d payload bytes", nbytes)
	}
	// The payload grows as its bytes arrive, so a short file that declares
	// a large bin costs what it holds; a bin of up to payloadChunk bytes is
	// one exact allocation.
	payload := make([]byte, 0, min(nbytes, payloadChunk))
	for len(payload) < int(nbytes) {
		k := min(int(nbytes)-len(payload), max(len(payload), payloadChunk))
		payload = slices.Grow(payload, k)
		if _, err := io.ReadFull(cr, payload[len(payload):len(payload)+k]); err != nil {
			return nil, fmt.Errorf("payload: %w", err)
		}
		payload = payload[:len(payload)+k]
	}
	sect := cr.sect
	var stored uint32
	if err := binary.Read(cr, binary.LittleEndian, &stored); err != nil {
		return nil, fmt.Errorf("checksum: %w", err)
	}
	if stored != sect {
		return nil, fmt.Errorf("record checksum %08x, stored %08x: %w", sect, stored, ErrChecksum)
	}
	return codec.New(codec.ID(tag[0]), payload, nbits)
}

// WriteRaw serializes a raw float64 array (the full-data baseline's
// output), closing with the same "ISCK" checksum footer as the index
// container.
func WriteRaw(w io.Writer, data []float64) (int64, error) {
	defer timeIO(tel.writeNs)()
	bw := bufio.NewWriter(w)
	cw := &sumWriter{w: bw}
	if _, err := io.WriteString(cw, rawMagic); err != nil {
		return cw.n, err
	}
	if err := binary.Write(cw, binary.LittleEndian, uint64(len(data))); err != nil {
		return cw.n, err
	}
	if err := binary.Write(cw, binary.LittleEndian, data); err != nil {
		return cw.n, err
	}
	fileCRC := cw.file
	if _, err := io.WriteString(cw, footerMagic); err != nil {
		return cw.n, err
	}
	if err := binary.Write(cw, binary.LittleEndian, fileCRC); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	tel.rawWritten.Inc()
	tel.bytesWritten.Add(cw.n)
	return cw.n, nil
}

// RawSize returns the byte size WriteRaw produces for n elements
// (including the checksum footer).
func RawSize(n int) int64 { return 4 + 8 + int64(8*n) + footerSize }

// rawChunk is how many elements readFloats reads per step: allocation
// grows only as fast as bytes actually arrive, so a header whose count lies
// (a flipped bit can inflate it by 2^32) fails at EOF instead of demanding
// the whole declared size up front.
const rawChunk = 1 << 15

// readFloats reads the n little-endian float64s a header declared, in
// rawChunk steps.
func readFloats(r io.Reader, n uint64) ([]float64, error) {
	if n > 1<<34 {
		return nil, fmt.Errorf("store: implausible element count %d", n)
	}
	data := make([]float64, 0, min(n, rawChunk))
	for remaining := n; remaining > 0; {
		c := min(remaining, rawChunk)
		at := len(data)
		data = append(data, make([]float64, c)...)
		if err := binary.Read(r, binary.LittleEndian, data[at:]); err != nil {
			return nil, err
		}
		remaining -= c
	}
	return data, nil
}

// ReadRaw parses an array written by WriteRaw: the footer is required and
// verified, and trailing bytes after it are rejected.
func ReadRaw(r io.Reader) ([]float64, error) {
	defer timeIO(tel.readNs)()
	cr := &sumReader{r: bufio.NewReader(r)}
	var magic [4]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("store: reading magic: %w", err)
	}
	if string(magic[:]) != rawMagic {
		return nil, fmt.Errorf("store: bad magic %q, not a raw array file", magic)
	}
	var n uint64
	if err := binary.Read(cr, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	data, err := readFloats(cr, n)
	if err != nil {
		return nil, err
	}
	if err := readFooter(cr); err != nil {
		return nil, err
	}
	if err := expectEOF(cr); err != nil {
		return nil, err
	}
	tel.rawRead.Inc()
	tel.bytesRead.Add(RawSize(len(data)))
	return data, nil
}
