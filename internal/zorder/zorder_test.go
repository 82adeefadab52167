package zorder

import (
	"math/rand"
	"sort"
	"testing"
)

func TestEncode3KnownValues(t *testing.T) {
	cases := []struct {
		x, y, z uint32
		want    uint64
	}{{0, 0, 0, 0}, {1, 0, 0, 1}, {0, 1, 0, 2}, {0, 0, 1, 4}, {1, 1, 1, 7}}
	for _, c := range cases {
		if got := Encode3(c.x, c.y, c.z); got != c.want {
			t.Errorf("Encode3(%d,%d,%d)=%d want %d", c.x, c.y, c.z, got, c.want)
		}
	}
}

// tiledGrids are the grids the tile invariants are checked on: a
// power-of-two one and a ragged one.
var tiledGrids = [][3]int{{16, 16, 16}, {20, 12, 10}}

func TestLayout3Bijection(t *testing.T) {
	dims := append([][3]int{{4, 4, 4}, {3, 5, 7}, {1, 1, 1}, {8, 1, 2}, {16, 16, 1}, {33, 9, 5}}, tiledGrids...)
	for _, d := range dims {
		l, err := NewLayout3(d[0], d[1], d[2])
		if err != nil {
			t.Fatal(err)
		}
		n := l.Len()
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			p := l.CurvePos(i)
			if p < 0 || p >= n {
				t.Fatalf("dims %v: CurvePos(%d)=%d out of range", d, i, p)
			}
			if seen[p] {
				t.Fatalf("dims %v: curve position %d assigned twice", d, p)
			}
			seen[p] = true
			if l.RowMajor(p) != i {
				t.Fatalf("dims %v: RowMajor(CurvePos(%d)) = %d", d, i, l.RowMajor(p))
			}
		}
	}
}

// pureZ returns the row-major indexes of a grid in dense-ranked Morton
// order, computed independently of NewLayout3.
func pureZ(nx, ny, nz int) []int {
	rows := make([]int, nx*ny*nz)
	code := make([]uint64, len(rows))
	for i := range rows {
		x, y, z := i%nx, i/nx%ny, i/(nx*ny)
		rows[i], code[i] = i, Encode3(uint32(x), uint32(y), uint32(z))
	}
	sort.Slice(rows, func(a, b int) bool { return code[rows[a]] < code[rows[b]] })
	return rows
}

func TestTilesHoldThePureZCells(t *testing.T) {
	for _, d := range tiledGrids {
		l, err := NewLayout3(d[0], d[1], d[2])
		if err != nil {
			t.Fatal(err)
		}
		z := pureZ(d[0], d[1], d[2])
		for lo := 0; lo < l.Len(); lo += Tile {
			hi := min(lo+Tile, l.Len())
			want := map[int]bool{}
			for _, row := range z[lo:hi] {
				want[row] = true
			}
			prev := -1
			for p := lo; p < hi; p++ {
				row := l.RowMajor(p)
				if !want[row] {
					t.Fatalf("%v: tile [%d,%d) holds row %d, which pure Z order puts elsewhere", d, lo, hi, row)
				}
				if row <= prev {
					t.Fatalf("%v: tile [%d,%d) is not in row order at %d", d, lo, hi, p)
				}
				prev = row
			}
		}
	}
}

// TestZOrderLocality is the property mining relies on below the tile size:
// on a power-of-two grid every aligned power-of-two range of up to Tile
// positions covers an axis-aligned box exactly.
func TestZOrderLocality(t *testing.T) {
	const nx, ny, nz = 16, 16, 16
	l, err := NewLayout3(nx, ny, nz)
	if err != nil {
		t.Fatal(err)
	}
	for size := 1; size <= Tile; size *= 2 {
		for lo := 0; lo < l.Len(); lo += size {
			var minc, maxc [3]int
			for p := lo; p < lo+size; p++ {
				row := l.RowMajor(p)
				c := [3]int{row % nx, row / nx % ny, row / (nx * ny)}
				for k := range c {
					if p == lo || c[k] < minc[k] {
						minc[k] = c[k]
					}
					if p == lo || c[k] > maxc[k] {
						maxc[k] = c[k]
					}
				}
			}
			box := (maxc[0] - minc[0] + 1) * (maxc[1] - minc[1] + 1) * (maxc[2] - minc[2] + 1)
			if box != size {
				t.Fatalf("range [%d,%d) spans box %v..%v of %d cells", lo, lo+size, minc, maxc, box)
			}
		}
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	l, err := NewLayout3(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	src := make([]float64, l.Len())
	for i := range src {
		src[i] = r.Float64()
	}
	curve := make([]float64, l.Len())
	back := make([]float64, l.Len())
	l.Permute(curve, src)
	l.Unpermute(back, curve)
	for i := range src {
		if back[i] != src[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestPermuteLengthMismatchPanics(t *testing.T) {
	l, _ := NewLayout3(2, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Permute(make([]float64, 7), make([]float64, 8))
}

func TestNewLayout3Validation(t *testing.T) {
	for _, d := range [][3]int{
		{0, 2, 2}, {-1, 2, 2},
		// Encode3 keeps 21 bits per coordinate: x=0 and x=1<<21 would
		// share a code.
		{1<<21 + 1, 1, 1}, {2, 1<<21 + 1, 1}, {1, 1, 1<<21 + 1}, {1<<21 + 4, 2, 2},
		{1 << 16, 1 << 16, 1},
	} {
		if _, err := NewLayout3(d[0], d[1], d[2]); err == nil {
			t.Errorf("grid %v accepted", d)
		}
	}
	if _, err := NewLayout3(1<<21, 1, 1); err != nil {
		t.Errorf("grid 1<<21 x 1 x 1 rejected: %v", err)
	}
}
