// Package codec names the bitmap encodings and implements the adaptive
// per-bin policy. The paper's observation (shared by Roaring and CONCISE)
// is that the right encoding is density-dependent: run-length codecs win on
// sparse bins, while bins past ~50% occupancy produce so few runs that the
// uncompressed form is both smaller per useful bit and faster to operate
// on. Auto applies that rule per bin at build time; the explicit IDs pin a
// single codec for benches and format conversion.
package codec

import (
	"fmt"

	"insitubits/internal/bitvec"
)

// ID names a bitmap encoding. The numeric values are the on-disk codec
// tags of the v2 index format (see docs/FORMATS.md) — do not renumber.
type ID uint8

const (
	// Auto is the adaptive policy: per-bin choice by observed density.
	// It never appears on disk; stored bins carry the resolved codec.
	Auto ID = 0
	// WAH is the 32-bit word-aligned hybrid codec (bitvec.Vector).
	WAH ID = 1
	// BBC is the byte-aligned run-length codec (bitvec.BBC).
	BBC ID = 2
	// Dense is the uncompressed segment-array codec (bitvec.Dense).
	Dense ID = 3
)

// DenseThreshold is the bin density (set bits / bits) at and above which
// Auto picks the uncompressed codec.
const DenseThreshold = 0.5

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
func (id ID) Valid() bool { return id <= Dense }

// Concrete reports whether id names a storable encoding (not Auto).
func (id ID) Concrete() bool { return id >= WAH && id <= Dense }

// Parse maps a flag value to an ID.
func Parse(s string) (ID, error) {
	switch s {
	case "auto", "":
		return Auto, nil
	case "wah":
		return WAH, nil
	case "bbc":
		return BBC, nil
	case "dense":
		return Dense, nil
	default:
		return Auto, fmt.Errorf("codec: unknown codec %q (want auto, wah, bbc, or dense)", s)
	}
}

// Of reports the codec a bitmap is encoded with.
func Of(b bitvec.Bitmap) ID {
	switch b.(type) {
	case *bitvec.Vector:
		return WAH
	case *bitvec.BBC:
		return BBC
	case *bitvec.Dense:
		return Dense
	default:
		return Auto
	}
}

// Encode re-encodes b under the given codec. Auto resolves per the policy:
// density at or above DenseThreshold takes the uncompressed codec, sparser
// bins take whichever run-length encoding (WAH or BBC) is actually smaller
// for these bits. A bitmap already in the target encoding passes through.
func Encode(b bitvec.Bitmap, id ID) bitvec.Bitmap {
	count := 0
	if id == Auto { // only the policy reads the count
		count = b.Count()
	}
	return EncodeCounted(b, id, count)
}

// EncodeCounted is Encode for a caller that already knows b's set-bit
// count — an index keeps every bin's, the histogram the build yields for
// free — so the policy decides dense-or-not without walking the bitmap.
func EncodeCounted(b bitvec.Bitmap, id ID, count int) bitvec.Bitmap {
	switch id {
	case WAH:
		return bitvec.ToVector(b)
	case BBC:
		return bitvec.BBCFromBitmap(b)
	case Dense:
		return bitvec.DenseFromBitmap(b)
	case Auto:
		return encodeAuto(b, count)
	default:
		panic(fmt.Sprintf("codec: Encode with invalid id %d", uint8(id)))
	}
}

func encodeAuto(b bitvec.Bitmap, count int) bitvec.Bitmap {
	n := b.Len()
	if n == 0 {
		return bitvec.ToVector(b)
	}
	if float64(count)/float64(n) >= DenseThreshold {
		return bitvec.DenseFromBitmap(b)
	}
	// Sparse regime: keep whichever run-length codec encodes these
	// particular bits tighter (ties go to WAH, whose word-aligned ops are
	// faster). The builders hand over WAH, so w is b itself, and the BBC
	// stream is only materialised when it wins: the encoder works in pooled
	// scratch and gives up once it reaches the WAH size.
	w := bitvec.ToVector(b)
	if c := bitvec.BBCIfSmaller(b, w.SizeBytes()); c != nil {
		return c
	}
	return w
}

// New decodes stored payload bytes under the given concrete codec,
// validating the encoding; the inverse of the store writer's Payload.
func New(id ID, payload []byte, nbits int) (bitvec.Bitmap, error) {
	switch id {
	case WAH:
		words, err := wordsOf(payload)
		if err != nil {
			return nil, err
		}
		return bitvec.FromRawWords(words, nbits)
	case Dense:
		words, err := wordsOf(payload)
		if err != nil {
			return nil, err
		}
		return bitvec.DenseFromRawWords(words, nbits)
	case BBC:
		return bitvec.BBCFromRaw(payload, nbits)
	default:
		return nil, fmt.Errorf("codec: unknown codec tag %d", uint8(id))
	}
}

// Payload returns the raw encoded bytes of b for storage, little-endian
// for the word-aligned codecs.
func Payload(b bitvec.Bitmap) []byte {
	switch v := b.(type) {
	case *bitvec.Vector:
		return bytesOf(v.RawWords())
	case *bitvec.Dense:
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
