// Package heat3d implements an explicit finite-difference 3-D heat-diffusion
// simulation, the reproduction's stand-in for the paper's Heat3D workload
// [dournac.org]: a 7-point stencil over a structured grid producing one
// temperature array per time-step. A slowly orbiting heat source keeps the
// value distribution evolving so time-step selection has real work to do.
package heat3d

import (
	"fmt"
	"math"

	"insitubits/internal/sim"
)

// Sim is a Heat3D instance. Create with New; not safe for concurrent Steps.
type Sim struct {
	nx, ny, nz int
	alpha      float64 // diffusion coefficient (stability requires < 1/6)
	cur, next  []float64
	step       int

	// SourceEnabled toggles the orbiting heat source (on by default).
	// Disabling it yields pure diffusion, useful for physics validation.
	SourceEnabled bool
}

// New allocates an nx×ny×nz simulation with a hot plate at z=0 and an
// initial Gaussian hot spot, mirroring the geologic heat-flow setup of the
// original code.
func New(nx, ny, nz int) (*Sim, error) {
	if nx < 3 || ny < 3 || nz < 3 {
		return nil, fmt.Errorf("heat3d: grid %dx%dx%d too small (min 3 per axis)", nx, ny, nz)
	}
	s := &Sim{
		nx: nx, ny: ny, nz: nz,
		alpha:         0.12,
		cur:           make([]float64, nx*ny*nz),
		next:          make([]float64, nx*ny*nz),
		SourceEnabled: true,
	}
	// Ambient rock at 20 with a hot basal plate and one narrow intrusion:
	// most of the domain sits on a constant plateau (long WAH fills), with
	// heat flowing in from the boundaries — the geologic heat-flow setting
	// of the original Heat3D code.
	cx, cy, cz := float64(nx)/2, float64(ny)/2, float64(nz)/2
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				dx, dy, dz := float64(x)-cx, float64(y)-cy, float64(z)-cz
				d2 := (dx*dx + dy*dy + dz*dz) / float64(nx*nx)
				v := 20 + 60*math.Exp(-48*d2) // narrow hot intrusion
				if z == 0 {
					v = 95 // hot basal plate
				}
				s.cur[s.at(x, y, z)] = v
			}
		}
	}
	return s, nil
}

func (s *Sim) at(x, y, z int) int { return (z*s.ny+y)*s.nx + x }

// Name implements sim.Simulator.
func (s *Sim) Name() string { return "heat3d" }

// Vars implements sim.Simulator.
func (s *Sim) Vars() []string { return []string{"temperature"} }

// Elements implements sim.Simulator.
func (s *Sim) Elements() int { return s.nx * s.ny * s.nz }

// Dims returns the grid shape.
func (s *Sim) Dims() (nx, ny, nz int) { return s.nx, s.ny, s.nz }

// Step implements sim.Simulator: one explicit Euler step of the 7-point
// stencil, slab-parallel over z, plus the orbiting source injection, copied
// out into an array the caller owns.
func (s *Sim) Step(nWorkers int) []sim.Field {
	return sim.CloneFields(s.StepLent(nWorkers))
}

// StepLent implements sim.Lender: the same step, returned as a view of the
// simulator's current grid.
func (s *Sim) StepLent(nWorkers int) []sim.Field {
	return []sim.Field{{Name: "temperature", Data: s.StepInto(nWorkers, nil)}}
}

// StepInto advances one step. A non-nil dst receives a copy of the new
// state (no allocation; the cluster driver's reused buffers); with a nil dst
// the simulator's own current grid is returned, read-only and valid until
// the next step.
func (s *Sim) StepInto(nWorkers int, dst []float64) []float64 {
	nx, ny, nz := s.nx, s.ny, s.nz
	plane := nx * ny
	a := s.alpha
	cur, next := s.cur, s.next
	sim.ParallelFor(nz, nWorkers, func(zlo, zhi int) {
		for z := zlo; z < zhi; z++ {
			// Dirichlet: the boundary planes, rows and row ends hold their
			// value.
			p := z * plane
			if z == 0 || z == nz-1 {
				copy(next[p:p+plane], cur[p:p+plane])
				continue
			}
			copy(next[p:p+nx], cur[p:p+nx])
			copy(next[p+plane-nx:p+plane], cur[p+plane-nx:p+plane])
			for i := p + nx; i < p+plane-nx; i += nx {
				// The row's interior and its six neighbours, each resliced to
				// the interior's length: the compiler then proves every index
				// of the x loop in range, so the loop runs with no branch but
				// its own. The sum keeps the per-element order, x±1, y±1,
				// z±1, so every value is bit-identical to it.
				next[i], next[i+nx-1] = cur[i], cur[i+nx-1]
				c := cur[i+1 : i+nx-1]
				w, e := cur[i:][:len(c)], cur[i+2:][:len(c)]
				yn, ys := cur[i+1-nx:][:len(c)], cur[i+1+nx:][:len(c)]
				zd, zu := cur[i+1-plane:][:len(c)], cur[i+1+plane:][:len(c)]
				out := next[i+1:][:len(c)]
				for x, cc := range c {
					lap := w[x] + e[x] + yn[x] + ys[x] + zd[x] + zu[x] - 6*cc
					out[x] = cc + a*lap
				}
			}
		}
	})
	s.cur, s.next = next, cur
	s.step++
	if s.SourceEnabled {
		s.injectSource()
	}
	if dst != nil {
		copy(dst, s.cur)
		return dst
	}
	return s.cur
}

// injectSource drives a hot spot around the mid-plane so the temperature
// distribution keeps changing; every 25 steps it jumps, giving the abrupt
// events time-step selection should single out.
func (s *Sim) injectSource() {
	period := 50.0
	phase := 2 * math.Pi * float64(s.step) / period
	jump := float64((s.step / 25) % 4)
	cx := int(float64(s.nx)/2 + float64(s.nx)/4*math.Cos(phase+jump))
	cy := int(float64(s.ny)/2 + float64(s.ny)/4*math.Sin(phase+jump))
	cz := s.nz / 2
	// A Gaussian bump keeps the field spatially smooth, which is what lets
	// WAH fills form (sharp discontinuities would fragment the bitvectors
	// and hurt the compression ratio the paper reports).
	rad := 4
	for z := cz - rad; z <= cz+rad; z++ {
		for y := cy - rad; y <= cy+rad; y++ {
			for x := cx - rad; x <= cx+rad; x++ {
				if x > 0 && y > 0 && z > 0 && x < s.nx-1 && y < s.ny-1 && z < s.nz-1 {
					dx, dy, dz := float64(x-cx), float64(y-cy), float64(z-cz)
					i := s.at(x, y, z)
					s.cur[i] = math.Min(120, s.cur[i]+12*math.Exp(-(dx*dx+dy*dy+dz*dz)/6))
				}
			}
		}
	}
}

// Ranges implements sim.Simulator: temperatures stay within [0, 130] by
// construction (ambient 20, plate 95, source clamped at 120).
func (s *Sim) Ranges() [][2]float64 { return [][2]float64{{0, 130}} }

// Temperature exposes the current state (read-only) for halo exchange in
// the cluster driver.
func (s *Sim) Temperature() []float64 { return s.cur }

// PlaneZ copies the nx×ny temperature plane at height z into dst (allocated
// when nil) — the payload a cluster node sends to its neighbor during halo
// exchange.
func (s *Sim) PlaneZ(z int, dst []float64) []float64 {
	if z < 0 || z >= s.nz {
		panic(fmt.Sprintf("heat3d: PlaneZ(%d) out of range [0,%d)", z, s.nz))
	}
	n := s.nx * s.ny
	if dst == nil {
		dst = make([]float64, n)
	}
	copy(dst, s.cur[z*n:(z+1)*n])
	return dst
}

// SetPlaneZ overwrites the plane at height z — how a cluster node installs
// the ghost layer received from its neighbor. Because the stencil holds
// boundary planes fixed within a step, planes 0 and nz-1 behave exactly
// like MPI ghost cells when refreshed before every step.
func (s *Sim) SetPlaneZ(z int, vals []float64) {
	n := s.nx * s.ny
	if z < 0 || z >= s.nz {
		panic(fmt.Sprintf("heat3d: SetPlaneZ(%d) out of range [0,%d)", z, s.nz))
	}
	if len(vals) != n {
		panic(fmt.Sprintf("heat3d: SetPlaneZ got %d values, want %d", len(vals), n))
	}
	copy(s.cur[z*n:(z+1)*n], vals)
}

// StepCount returns how many steps have run.
func (s *Sim) StepCount() int { return s.step }

var _ sim.Lender = (*Sim)(nil)
