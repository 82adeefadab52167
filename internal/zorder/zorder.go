// Package zorder lays a 3-D grid out along a tiled Morton (Z-order) curve.
// The paper's correlation-mining optimization (§4.2) lays the dataset out in
// Z order before bitmap generation so that every "basic spatial unit" — an
// axis-aligned sub-cube — becomes one contiguous bit range of every
// bitvector, which turns per-unit 1-bit counting into CountRange calls on the
// compressed form.
//
// The curve is Z order between tiles of Tile cells and row order (x fastest)
// inside them: the Morton ranking is cut into Tile-aligned chunks and each
// chunk is sorted by row-major index. Every Tile-aligned position range
// therefore holds exactly the cells it holds in pure Z order, on any grid, so
// spatial units that are multiples of Tile are the same cubes as before. Row
// order inside a tile keeps neighbouring cells of a smooth field next to each
// other along x, which lengthens the runs of every bin's bitvector and shrinks
// the compressed indexes.
package zorder

import (
	"cmp"
	"fmt"
	"slices"
)

// Tile is the number of curve positions ordered row-major inside one Z-order
// tile: an 8×8×8 cube on power-of-two grids, the mining unit the examples,
// the CLI and the benchmark use.
const Tile = 512

// maxDim is the largest dimension Encode3 keeps apart: spread3 keeps 21 bits
// per coordinate.
const maxDim = 1 << 21

// spread3 inserts two zero bits between each of the low 21 bits of x.
func spread3(x uint32) uint64 {
	v := uint64(x) & 0x1FFFFF
	v = (v | v<<32) & 0x1F00000000FFFF
	v = (v | v<<16) & 0x1F0000FF0000FF
	v = (v | v<<8) & 0x100F00F00F00F00F
	v = (v | v<<4) & 0x10C30C30C30C30C3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// Encode3 interleaves (x, y, z) into a Morton code. Coordinates must be below
// 1<<21.
func Encode3(x, y, z uint32) uint64 { return spread3(x) | spread3(y)<<1 | spread3(z)<<2 }

// Layout3 maps between row-major and tiled Z-order positions of an nx×ny×nz
// grid. Non-power-of-two grids are handled by ranking: the Morton codes of
// all in-grid coordinates are dense-ranked so the curve remains a bijection
// onto [0, nx*ny*nz) with Z-order locality preserved between tiles.
type Layout3 struct {
	NX, NY, NZ int
	toZ        []int32 // row-major index -> curve position
	fromZ      []int32 // curve position -> row-major index
}

// NewLayout3 precomputes the permutation for the given grid. Dimensions must
// be positive and at most 1<<21, and the total size must fit in int32.
func NewLayout3(nx, ny, nz int) (*Layout3, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("zorder: non-positive grid %dx%dx%d", nx, ny, nz)
	}
	if nx > maxDim || ny > maxDim || nz > maxDim {
		return nil, fmt.Errorf("zorder: grid %dx%dx%d has a dimension above %d", nx, ny, nz, maxDim)
	}
	if nx*ny > (1<<31-1)/nz {
		return nil, fmt.Errorf("zorder: grid %dx%dx%d too large", nx, ny, nz)
	}
	n := nx * ny * nz
	l := &Layout3{NX: nx, NY: ny, NZ: nz,
		toZ:   make([]int32, n),
		fromZ: make([]int32, n),
	}
	// Enumerate coordinates in Morton order by sorting codes; for dense
	// power-of-two grids this is the identity Z-curve, otherwise a dense
	// ranking of it.
	type cm struct {
		code uint64
		row  int32
	}
	items := make([]cm, n)
	i := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				items[i] = cm{Encode3(uint32(x), uint32(y), uint32(z)), int32(i)}
				i++
			}
		}
	}
	slices.SortFunc(items, func(a, b cm) int { return cmp.Compare(a.code, b.code) })
	for pos, it := range items {
		l.fromZ[pos] = it.row
	}
	// Row order inside each tile.
	for lo := 0; lo < n; lo += Tile {
		slices.Sort(l.fromZ[lo:min(lo+Tile, n)])
	}
	for pos, row := range l.fromZ {
		l.toZ[row] = int32(pos)
	}
	return l, nil
}

// Len returns the number of grid cells.
func (l *Layout3) Len() int { return len(l.toZ) }

// CurvePos returns the curve position of row-major index i.
func (l *Layout3) CurvePos(i int) int { return int(l.toZ[i]) }

// RowMajor returns the row-major index at curve position p.
func (l *Layout3) RowMajor(p int) int { return int(l.fromZ[p]) }

// Permute writes src (row-major) into dst in curve order. dst and src must
// have length Len() and must not alias.
func (l *Layout3) Permute(dst, src []float64) {
	if len(dst) != len(l.toZ) || len(src) != len(l.toZ) {
		panic(fmt.Sprintf("zorder: Permute length mismatch dst=%d src=%d want %d", len(dst), len(src), len(l.toZ)))
	}
	for i, p := range l.toZ {
		dst[p] = src[i]
	}
}

// Unpermute inverts Permute.
func (l *Layout3) Unpermute(dst, src []float64) {
	if len(dst) != len(l.toZ) || len(src) != len(l.toZ) {
		panic(fmt.Sprintf("zorder: Unpermute length mismatch dst=%d src=%d want %d", len(dst), len(src), len(l.toZ)))
	}
	for i, p := range l.toZ {
		dst[i] = src[p]
	}
}
