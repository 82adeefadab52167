// Package codec names the bitmap encodings and implements the adaptive
// per-bin policy. The paper stores bins with run-length codecs, WAH or BBC
// (§2.1), and which one is smaller depends on the bits: BBC's byte-granular
// runs win on sparse, scattered bins, WAH's 31-bit fills on long runs. Auto
// keeps whichever encodes the bin smaller, as Roaring picks each container's
// form by size rather than by density; the explicit IDs pin one codec for
// benches and format conversion.
package codec

import (
	"fmt"

	"insitubits/internal/bitvec"
)

// ID names a bitmap encoding. The numeric values are the on-disk codec
// tags of the index format (see docs/FORMATS.md) — do not renumber.
type ID uint8

const (
	// Auto is the adaptive policy: per bin, the smaller of WAH and BBC.
	// It never appears on disk; stored bins carry the resolved codec.
	Auto ID = 0
	// WAH is the 32-bit word-aligned hybrid codec (bitvec.Vector).
	WAH ID = 1
	// BBC is the byte-aligned run-length codec (bitvec.BBC).
	BBC ID = 2
	// Dense is the tag of the retired uncompressed codec. Nothing encodes,
	// writes or reads it: New refuses the tag. The name stays only as the
	// key of a benchmark probe counter.
	Dense ID = 3
)

// String returns the flag-friendly name.
func (id ID) String() string {
	switch id {
	case Auto:
		return "auto"
	case WAH:
		return "wah"
	case BBC:
		return "bbc"
	case Dense:
		return "dense"
	default:
		return fmt.Sprintf("codec(%d)", uint8(id))
	}
}

// Valid reports whether id names a known codec (including Auto).
func (id ID) Valid() bool { return id <= BBC }

// Concrete reports whether id names a storable encoding (not Auto).
func (id ID) Concrete() bool { return id == WAH || id == BBC }

// Parse maps a flag value to an ID.
func Parse(s string) (ID, error) {
	switch s {
	case "auto", "":
		return Auto, nil
	case "wah":
		return WAH, nil
	case "bbc":
		return BBC, nil
	default:
		return Auto, fmt.Errorf("codec: unknown codec %q (want auto, wah, or bbc)", s)
	}
}

// Of reports the codec a bitmap is encoded with.
func Of(b bitvec.Bitmap) ID {
	switch b.(type) {
	case *bitvec.Vector:
		return WAH
	case *bitvec.BBC:
		return BBC
	default:
		return Auto
	}
}

// Encode re-encodes b under the given codec. Auto resolves per the policy:
// whichever run-length encoding (WAH or BBC) is smaller for these bits,
// ties to WAH, whose word-aligned ops are faster. A bitmap already in the
// target encoding passes through.
func Encode(b bitvec.Bitmap, id ID) bitvec.Bitmap {
	switch id {
	case WAH:
		return bitvec.ToVector(b)
	case BBC:
		return bitvec.BBCFromBitmap(b)
	case Auto:
		// The builders hand over WAH, so w is b itself, and the BBC stream
		// is only materialised when it wins: the encoder works in pooled
		// scratch and gives up once it reaches the WAH size.
		w := bitvec.ToVector(b)
		if c := bitvec.BBCIfSmaller(b, w.SizeBytes()); c != nil {
			return c
		}
		return w
	default:
		panic(fmt.Sprintf("codec: Encode with invalid id %d", uint8(id)))
	}
}

// EncodeRuns encodes the n-bit bitmap whose set bits are the given runs
// (see bitvec.RunEncoder) under the given codec, Auto by the same policy as
// Encode: the smaller exact encoding, ties to WAH.
func EncodeRuns(e *bitvec.RunEncoder, id ID, n int, runs ...[]uint32) bitvec.Bitmap {
	switch id {
	case WAH:
		return e.WAH(n, runs...)
	case BBC:
		return e.BBC(n, runs...)
	case Auto:
		return e.Smaller(n, runs...)
	default:
		panic(fmt.Sprintf("codec: EncodeRuns with invalid id %d", uint8(id)))
	}
}

// New decodes stored payload bytes under the given codec tag, validating
// the encoding; the inverse of the store writer's Payload. Only the two
// tags Payload produces are accepted; the retired Dense tag is refused.
func New(id ID, payload []byte, nbits int) (bitvec.Bitmap, error) {
	switch id {
	case WAH:
		words, err := wordsOf(payload)
		if err != nil {
			return nil, err
		}
		return bitvec.FromRawWords(words, nbits)
	case BBC:
		return bitvec.BBCFromRaw(payload, nbits)
	case Dense:
		return nil, fmt.Errorf("codec: tag %d (dense) is retired", uint8(id))
	default:
		return nil, fmt.Errorf("codec: unknown codec tag %d", uint8(id))
	}
}

// Payload returns the raw encoded bytes of b for storage, little-endian
// for WAH's words.
func Payload(b bitvec.Bitmap) []byte {
	switch v := b.(type) {
	case *bitvec.Vector:
		return bytesOf(v.RawWords())
	case *bitvec.BBC:
		return v.RawBytes()
	default:
		return bytesOf(bitvec.ToVector(b).RawWords())
	}
}

func bytesOf(words []uint32) []byte {
	out := make([]byte, 4*len(words))
	for i, w := range words {
		out[4*i] = byte(w)
		out[4*i+1] = byte(w >> 8)
		out[4*i+2] = byte(w >> 16)
		out[4*i+3] = byte(w >> 24)
	}
	return out
}

func wordsOf(payload []byte) ([]uint32, error) {
	if len(payload)%4 != 0 {
		return nil, fmt.Errorf("codec: word-aligned payload of %d bytes not a multiple of 4", len(payload))
	}
	words := make([]uint32, len(payload)/4)
	for i := range words {
		words[i] = uint32(payload[4*i]) | uint32(payload[4*i+1])<<8 |
			uint32(payload[4*i+2])<<16 | uint32(payload[4*i+3])<<24
	}
	return words, nil
}
