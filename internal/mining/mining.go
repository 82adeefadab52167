// Package mining implements the paper's offline analysis: correlation mining
// between two variables (§4, Algorithm 2). Low-correlation value subsets are
// pruned top-down with threshold T (justified by the paper's Equation 7),
// and the surviving joint bins are scanned bottom-up over basic spatial
// units with threshold T' (Equation 8 shows why spatial pruning cannot be
// top-down). Spatial units are contiguous ranges of the (Z-order) element
// layout.
//
// Both indexes are decoded into one bin id per element, once. Every joint
// count Algorithm 2 reads — the value-level c_ij of line 3 and the per-unit
// counts of line 7 — is then a tally over the two id arrays, O(n) whatever
// the number of bin pairs, instead of a compressed AND per pair.
package mining

import (
	"fmt"
	"math"

	"insitubits/internal/binning"
	"insitubits/internal/index"
	"insitubits/internal/metrics"
	"insitubits/internal/sim"
)

// Config parameterizes Algorithm 2.
type Config struct {
	// UnitSize is the basic spatial unit in elements. With the tiled Z-order
	// layout (internal/zorder) this is the paper's "smallest unit of Z
	// orders": on power-of-two grids a multiple of the 512-cell tile is a
	// union of 8³ cubes, and a smaller power of two an axis-aligned box
	// inside one (256 → 8×8×4, 64 → 8×8×1).
	UnitSize int
	// ValueThreshold is T: a joint bin (value-subset pair) whose global
	// mutual-information term falls below it is pruned before any spatial
	// work (Algorithm 2 line 5).
	ValueThreshold float64
	// SpatialThreshold is T': a spatial unit is reported only if its local
	// mutual-information term reaches it (Algorithm 2 line 8).
	SpatialThreshold float64
}

// validate checks cfg for two variables of n and nb elements. Per-unit
// counts are int32, so a unit holds at most MaxInt32 elements.
func (c Config) validate(n, nb int) error {
	if n != nb {
		return fmt.Errorf("mining: variables of %d and %d elements", n, nb)
	}
	if c.UnitSize <= 0 || c.UnitSize > n || c.UnitSize > math.MaxInt32 {
		return fmt.Errorf("mining: unit size %d out of range [1,%d]", c.UnitSize, n)
	}
	if c.ValueThreshold < 0 || c.SpatialThreshold < 0 {
		return fmt.Errorf("mining: negative thresholds (%g, %g)", c.ValueThreshold, c.SpatialThreshold)
	}
	return nil
}

// Finding is one mined (value-subset pair, spatial unit) with high local
// correlation.
type Finding struct {
	BinA, BinB int     // value-subset bins of the two variables
	Unit       int     // spatial unit index along the element layout
	Begin, End int     // element range [Begin, End) of the unit
	ValueMI    float64 // the joint bin's global MI term (Algorithm 2 line 4)
	SpatialMI  float64 // the unit's local MI term (Algorithm 2 line 7)
}

// Mine runs Algorithm 2 over two single-level indices built over the same
// element layout.
func Mine(xa, xb *index.Index, cfg Config) ([]Finding, error) { return mine(xa, xb, cfg, 1) }

// MineParallel is Mine with the decodes and the two tallies split over
// nWorkers goroutines — the parallel setting of the authors' correlation
// framework [30]. The output is identical to Mine's, order included.
func MineParallel(xa, xb *index.Index, cfg Config, nWorkers int) ([]Finding, error) {
	return mine(xa, xb, cfg, nWorkers)
}

func mine(xa, xb *index.Index, cfg Config, workers int) ([]Finding, error) {
	n := xa.N()
	if err := cfg.validate(n, xb.N()); err != nil {
		return nil, err
	}
	ida, idb := index.DecodeBinIDs(xa, workers), index.DecodeBinIDs(xb, workers)
	// Lines 1-5, in bin-pair order; slot numbers the survivors (-1: pruned).
	// The bins tile the elements, so the histograms are the joint table's
	// marginals.
	ca, cb := xa.Histogram(), xb.Histogram()
	t := tables{units: (n + cfg.UnitSize - 1) / cfg.UnitSize, size: cfg.UnitSize, nb: xb.Bins(),
		slot: make([]int32, xa.Bins()*xb.Bins())}
	var kept []Finding
	for i, row := range metrics.JointFromIDs(ida, idb, workers) { // line 3, every bin pair
		for j, cij := range row {
			t.slot[i*t.nb+j] = -1
			// Line 4, then line 5. An empty joint bin has no unit to find.
			valueMI := metrics.MutualInformationTerm(cij, ca[i], cb[j], n)
			if cij == 0 || valueMI < cfg.ValueThreshold {
				continue
			}
			t.slot[i*t.nb+j] = int32(len(kept))
			kept = append(kept, Finding{BinA: i, BinB: j, ValueMI: valueMI})
		}
	}
	t.joint = make([]int32, len(kept)*t.units)
	t.ua, t.ub = make([]int32, xa.Bins()*t.units), make([]int32, xb.Bins()*t.units)
	switch {
	case ida.U8 != nil && idb.U8 != nil:
		tallyUnits(&t, ida.U8, idb.U8, workers)
	case ida.U8 != nil:
		tallyUnits(&t, ida.U8, idb.U16, workers)
	case idb.U8 != nil:
		tallyUnits(&t, ida.U16, idb.U8, workers)
	default:
		tallyUnits(&t, ida.U16, idb.U16, workers)
	}
	var out []Finding // lines 6-11
	for s, p := range kept {
		out = append(out, scanUnits(p, t.row(t.joint, s), t.row(t.ua, p.BinA), t.row(t.ub, p.BinB), n, cfg)...)
	}
	return out, nil
}

// tables hold per-unit counts, a row of units cells each: the joint counts
// of every survivor and the marginals of every bin of A and of B.
type tables struct {
	units, size   int     // units, of size elements each
	nb            int     // bins of B: slot is indexed by a*nb+b
	slot          []int32 // survivor of each joint bin, -1 if pruned
	joint, ua, ub []int32
}

func (t *tables) row(cells []int32, r int) []int32 { return cells[r*t.units : (r+1)*t.units] }

// tallyUnits is the second pass over the two id arrays: every element adds
// one to its unit's cell in the marginal rows of its two bins and, when its
// joint bin survived, in that survivor's row. Workers take unit ranges, so
// they write disjoint cells.
func tallyUnits[A, B uint8 | uint16](t *tables, a []A, b []B, workers int) {
	sim.ParallelFor(t.units, workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			for k, to := u*t.size, min((u+1)*t.size, len(a)); k < to; k++ {
				i, j := int(a[k]), int(b[k])
				t.ua[i*t.units+u]++
				t.ub[j*t.units+u]++
				if s := t.slot[i*t.nb+j]; s >= 0 {
					t.joint[int(s)*t.units+u]++
				}
			}
		}
	})
}

// scanUnits is Algorithm 2's spatial loop (lines 6-11) over one surviving
// joint bin: the local MI term of each unit, computed from unit-local joint
// and marginal counts, reported as a copy of pair.
func scanUnits(pair Finding, joint, ca, cb []int32, n int, cfg Config) []Finding {
	var out []Finding
	for u := range joint {
		if joint[u] == 0 {
			continue
		}
		f := pair
		f.Unit, f.Begin, f.End = u, u*cfg.UnitSize, min((u+1)*cfg.UnitSize, n)
		f.SpatialMI = metrics.MutualInformationTerm(int(joint[u]), int(ca[u]), int(cb[u]), f.End-f.Begin)
		if f.SpatialMI >= cfg.SpatialThreshold { // line 8
			out = append(out, f)
		}
	}
	return out
}

// childTermUpperBound bounds the MI term of any joint bin whose count is at
// most c. With p = c/n, its term is p·log2(p/(pa·pb)) ≤ p·log2(1/p) because
// pa, pb ≥ p. The map p ↦ p·log2(1/p) increases until p = 1/e, so capping
// there yields a monotone, safe bound.
func childTermUpperBound(c, n int) float64 {
	if c == 0 || n == 0 {
		return 0
	}
	p := min(float64(c)/float64(n), 1/math.E)
	return p * math.Log2(1/p)
}

// MineFullData is the exhaustive full-data baseline the paper compares
// against (§5.4): the value filter needs one full scan to build the joint
// histogram, and every surviving bin pair then re-scans the raw arrays to
// assemble its per-unit counts. Results are identical to Mine with the same
// binning; only the cost differs.
func MineFullData(a, b []float64, ma, mb binning.Mapper, cfg Config) ([]Finding, error) {
	if err := cfg.validate(len(a), len(b)); err != nil {
		return nil, err
	}
	n := len(a)
	joint := metrics.JointHistogram(a, b, ma, mb)
	ha := metrics.Histogram(a, ma)
	hb := metrics.Histogram(b, mb)
	nUnits := (n + cfg.UnitSize - 1) / cfg.UnitSize
	var out []Finding
	for i := range joint {
		for j := range joint[i] {
			valueMI := metrics.MutualInformationTerm(joint[i][j], ha[i], hb[j], n)
			if joint[i][j] == 0 || valueMI < cfg.ValueThreshold {
				continue
			}
			// Exhaustive per-pair re-scan: unit-local joint and marginals.
			ju, cau, cbu := make([]int32, nUnits), make([]int32, nUnits), make([]int32, nUnits)
			for k := range a {
				u, inA, inB := k/cfg.UnitSize, ma.Bin(a[k]) == i, mb.Bin(b[k]) == j
				if inA {
					cau[u]++
				}
				if inB {
					cbu[u]++
				}
				if inA && inB {
					ju[u]++
				}
			}
			out = append(out, scanUnits(Finding{BinA: i, BinB: j, ValueMI: valueMI}, ju, cau, cbu, n, cfg)...)
		}
	}
	return out, nil
}
