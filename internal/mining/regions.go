package mining

import (
	"cmp"
	"slices"
)

// Region is a run of one bin pair's findings over adjacent spatial units —
// with Z-order layouts, a spatially compact block — and keeps the maximum
// local MI of its units.
type Region struct {
	BinA, BinB int
	Begin, End int
	Units      int
	MaxMI      float64
}

// MergeFindings groups per-unit findings into regions.
func MergeFindings(fs []Finding) []Region {
	if len(fs) == 0 {
		return nil
	}
	sorted := slices.Clone(fs)
	slices.SortFunc(sorted, func(x, y Finding) int {
		return cmp.Or(cmp.Compare(x.BinA, y.BinA), cmp.Compare(x.BinB, y.BinB), cmp.Compare(x.Unit, y.Unit))
	})
	var out []Region
	cur := Region{BinA: sorted[0].BinA, BinB: sorted[0].BinB,
		Begin: sorted[0].Begin, End: sorted[0].End, Units: 1, MaxMI: sorted[0].SpatialMI}
	lastUnit := sorted[0].Unit
	for _, f := range sorted[1:] {
		if f.BinA == cur.BinA && f.BinB == cur.BinB && f.Unit == lastUnit+1 {
			cur.End = f.End
			cur.Units++
			if f.SpatialMI > cur.MaxMI {
				cur.MaxMI = f.SpatialMI
			}
		} else {
			out = append(out, cur)
			cur = Region{BinA: f.BinA, BinB: f.BinB, Begin: f.Begin, End: f.End, Units: 1, MaxMI: f.SpatialMI}
		}
		lastUnit = f.Unit
	}
	return append(out, cur)
}
