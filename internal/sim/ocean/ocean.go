// Package ocean synthesizes a multi-variable ocean-state dataset standing in
// for the Parallel Ocean Program (POP) output the paper mines offline. The
// real POP simulation code was unavailable even to the paper's authors (they
// used an archived NetCDF dataset, likewise unavailable here), so this
// generator reproduces the *properties* the correlation-mining experiments
// need: multiple variables over a lon×lat×depth grid, large-scale smooth
// structure, and — going beyond the paper — *planted* regions where
// temperature and salinity are strongly coupled, providing ground truth the
// accuracy experiments can score against.
package ocean

import (
	"fmt"
	"math"
	"math/rand"

	"insitubits/internal/zorder"
)

// Region is an axis-aligned grid box (all bounds half-open).
type Region struct {
	LonLo, LonHi     int
	LatLo, LatHi     int
	DepthLo, DepthHi int
}

// Contains reports whether grid cell (lon, lat, depth) lies in the region.
func (r Region) Contains(lon, lat, depth int) bool {
	return lon >= r.LonLo && lon < r.LonHi &&
		lat >= r.LatLo && lat < r.LatHi &&
		depth >= r.DepthLo && depth < r.DepthHi
}

// Dataset is one generated ocean state.
type Dataset struct {
	NLon, NLat, NDepth int
	// Names lists the generated variables; Var fetches each by name.
	Names []string
	// Planted are the ground-truth regions where salinity tracks
	// temperature (the "currents" correlation mining should find).
	Planted []Region

	vars   map[string][]float64
	layout *zorder.Layout3
}

// Generate builds a deterministic dataset for the given grid and seed.
func Generate(nlon, nlat, ndepth int, seed int64) (*Dataset, error) {
	if nlon < 4 || nlat < 4 || ndepth < 2 {
		return nil, fmt.Errorf("ocean: grid %dx%dx%d too small", nlon, nlat, ndepth)
	}
	layout, err := zorder.NewLayout3(nlon, nlat, ndepth)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	d := &Dataset{
		NLon: nlon, NLat: nlat, NDepth: ndepth,
		Names:  []string{"temperature", "salinity", "density", "uvel", "vvel", "oxygen"},
		vars:   make(map[string][]float64),
		layout: layout,
	}
	n := nlon * nlat * ndepth
	temp := make([]float64, n)
	salt := make([]float64, n)
	dens := make([]float64, n)
	uvel := make([]float64, n)
	vvel := make([]float64, n)
	oxy := make([]float64, n)

	// Two planted currents: a surface western-boundary current and a deep
	// channel, together covering a modest fraction of the domain.
	d.Planted = []Region{
		{LonLo: nlon / 8, LonHi: nlon / 8 * 3, LatLo: nlat / 2, LatHi: nlat / 8 * 7, DepthLo: 0, DepthHi: max(1, ndepth/4)},
		{LonLo: nlon / 2, LonHi: nlon / 4 * 3, LatLo: nlat / 8, LatHi: nlat / 8 * 3, DepthLo: ndepth / 2, DepthHi: max(ndepth/2+1, ndepth/4*3)},
	}

	// Smooth random eddy field parameters.
	type eddy struct{ ax, ay, az, px, py, pz float64 }
	eddies := make([]eddy, 6)
	for i := range eddies {
		eddies[i] = eddy{
			ax: 2 + 6*r.Float64(), ay: 2 + 6*r.Float64(), az: 1 + 2*r.Float64(),
			px: 2 * math.Pi * r.Float64(), py: 2 * math.Pi * r.Float64(), pz: 2 * math.Pi * r.Float64(),
		}
	}
	smooth := func(x, y, z float64) float64 {
		v := 0.0
		for _, e := range eddies {
			v += math.Sin(e.ax*x+e.px) * math.Cos(e.ay*y+e.py) * math.Cos(e.az*z+e.pz)
		}
		return v / float64(len(eddies))
	}

	i := 0
	for depth := 0; depth < ndepth; depth++ {
		zf := float64(depth) / float64(ndepth)
		for lat := 0; lat < nlat; lat++ {
			yf := float64(lat) / float64(nlat)
			for lon := 0; lon < nlon; lon++ {
				xf := float64(lon) / float64(nlon)
				// Temperature: warm equator, cold poles and depths, eddies.
				t := 25 - 18*math.Abs(yf-0.5)*2 - 15*zf + 3*smooth(xf, yf, zf) + 0.2*r.NormFloat64()
				temp[i] = t
				// Salinity: independent large-scale pattern by default...
				s := 34 + 1.5*math.Sin(3*math.Pi*xf)*math.Cos(2*math.Pi*yf) + 0.5*zf + 0.2*r.NormFloat64()
				// ...but inside a planted current it tracks temperature.
				for _, reg := range d.Planted {
					if reg.Contains(lon, lat, depth) {
						s = 30 + 0.35*t + 0.05*r.NormFloat64()
						break
					}
				}
				salt[i] = s
				// Density: a simple linear EOS of T and S (globally coupled,
				// as in the real ocean).
				dens[i] = 1028 - 0.15*(t-10) + 0.78*(s-34) + 0.05*r.NormFloat64()
				// Velocities: geostrophic-looking swirls.
				uvel[i] = 0.8*smooth(xf+0.3, yf, zf) + 0.05*r.NormFloat64()
				vvel[i] = 0.8*smooth(xf, yf+0.3, zf) + 0.05*r.NormFloat64()
				// Oxygen: decays with depth and warmer water holds less.
				oxy[i] = 9 - 4*zf - 0.12*t + 1.2*smooth(xf, yf, zf+0.5) + 0.1*r.NormFloat64()
				i++
			}
		}
	}
	d.vars["temperature"] = temp
	d.vars["salinity"] = salt
	d.vars["density"] = dens
	d.vars["uvel"] = uvel
	d.vars["vvel"] = vvel
	d.vars["oxygen"] = oxy
	return d, nil
}

// N returns the number of grid cells.
func (d *Dataset) N() int { return d.NLon * d.NLat * d.NDepth }

// Var returns a variable's values in row-major (lon fastest) order.
func (d *Dataset) Var(name string) ([]float64, error) {
	v, ok := d.vars[name]
	if !ok {
		return nil, fmt.Errorf("ocean: unknown variable %q (have %v)", name, d.Names)
	}
	return v, nil
}

// VarCurveOrder returns a variable permuted into the tiled Z order of
// zorder.Layout3 — Z order between 8³ tiles, row order inside them — the
// layout the mining optimization indexes so spatial units are contiguous
// bit ranges.
func (d *Dataset) VarCurveOrder(name string) ([]float64, error) {
	src, err := d.Var(name)
	if err != nil {
		return nil, err
	}
	dst := make([]float64, len(src))
	d.layout.Permute(dst, src)
	return dst, nil
}

// Layout exposes the tiled Z-order permutation (for decoding mined unit
// ranges back into grid coordinates).
func (d *Dataset) Layout() *zorder.Layout3 { return d.layout }

// PlantedCurveCells marks, per curve position, whether the cell belongs
// to a planted region; accuracy scoring uses it as ground truth.
func (d *Dataset) PlantedCurveCells() []bool {
	out := make([]bool, d.N())
	i := 0
	for depth := 0; depth < d.NDepth; depth++ {
		for lat := 0; lat < d.NLat; lat++ {
			for lon := 0; lon < d.NLon; lon++ {
				for _, reg := range d.Planted {
					if reg.Contains(lon, lat, depth) {
						out[d.layout.CurvePos(i)] = true
						break
					}
				}
				i++
			}
		}
	}
	return out
}

// PlantedFraction returns the fraction of cells inside planted regions.
func (d *Dataset) PlantedFraction() float64 {
	cells := d.PlantedCurveCells()
	c := 0
	for _, b := range cells {
		if b {
			c++
		}
	}
	return float64(c) / float64(len(cells))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
