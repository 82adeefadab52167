// Package lulesh implements a simplified Lagrangian shock-hydrodynamics
// proxy standing in for LULESH 2.0 [Karlin et al.]: a Sedov-type blast on a
// structured hex mesh. Per time-step it produces the paper's 12 nodal
// arrays — Coordinates, Force, Acceleration and Velocity, each in X/Y/Z —
// and, like the original, spends far more time simulating than the analysis
// phases spend analyzing, which is the property the Figure 9/10/12c
// experiments depend on.
//
// The physics is deliberately reduced (ideal-gas EOS, corner-force pressure
// gradients, scalar artificial viscosity) but the data characteristics match
// what the paper's evaluation needs: a shock front sweeping outward, 89-314
// distinct bins per array, and an evolving multi-variable distribution.
package lulesh

import (
	"fmt"
	"math"

	"insitubits/internal/sim"
)

const (
	gamma = 1.4  // ideal-gas ratio of specific heats
	dt    = 0.01 // fixed Lagrangian step
	qCoef = 1.5  // artificial-viscosity coefficient
)

// Sim is one blast-wave instance over an nx×ny×nz node mesh.
type Sim struct {
	nx, ny, nz int // node counts per axis
	// nodal arrays (length nx*ny*nz)
	posX, posY, posZ []float64
	velX, velY, velZ []float64
	accX, accY, accZ []float64
	frcX, frcY, frcZ []float64
	mass             []float64
	// element (cell) arrays, (nx-1)(ny-1)(nz-1)
	energy, energyNext, pressure, volume []float64
	step                                 int
}

const (
	energyCap = 35.0 // ceiling on per-element internal energy
	energyKap = 0.12 // inter-element energy transport coefficient
	workLimit = 0.10 // max fractional energy change per step from pdV work
	energyMin = 1e-6
)

// New builds the mesh with unit spacing and deposits the Sedov energy spike
// in the central element.
func New(nx, ny, nz int) (*Sim, error) {
	if nx < 3 || ny < 3 || nz < 3 {
		return nil, fmt.Errorf("lulesh: mesh %dx%dx%d too small (min 3 nodes per axis)", nx, ny, nz)
	}
	nn := nx * ny * nz
	ne := (nx - 1) * (ny - 1) * (nz - 1)
	s := &Sim{
		nx: nx, ny: ny, nz: nz,
		posX: make([]float64, nn), posY: make([]float64, nn), posZ: make([]float64, nn),
		velX: make([]float64, nn), velY: make([]float64, nn), velZ: make([]float64, nn),
		accX: make([]float64, nn), accY: make([]float64, nn), accZ: make([]float64, nn),
		frcX: make([]float64, nn), frcY: make([]float64, nn), frcZ: make([]float64, nn),
		mass:   make([]float64, nn),
		energy: make([]float64, ne), energyNext: make([]float64, ne),
		pressure: make([]float64, ne), volume: make([]float64, ne),
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := s.node(x, y, z)
				s.posX[i], s.posY[i], s.posZ[i] = float64(x), float64(y), float64(z)
				s.mass[i] = 1
			}
		}
	}
	for e := range s.volume {
		s.volume[e] = 1
		s.energy[e] = 1e-4 // cold background
	}
	// Sedov spike at the central element.
	s.energy[s.elem((nx-1)/2, (ny-1)/2, (nz-1)/2)] = 30
	return s, nil
}

func (s *Sim) node(x, y, z int) int { return (z*s.ny+y)*s.nx + x }
func (s *Sim) elem(x, y, z int) int { return (z*(s.ny-1)+y)*(s.nx-1) + x }

// Name implements sim.Simulator.
func (s *Sim) Name() string { return "lulesh" }

// Vars implements sim.Simulator: the paper's 12 arrays.
func (s *Sim) Vars() []string {
	return []string{
		"coord.x", "coord.y", "coord.z",
		"force.x", "force.y", "force.z",
		"accel.x", "accel.y", "accel.z",
		"veloc.x", "veloc.y", "veloc.z",
	}
}

// Elements implements sim.Simulator (nodes per array).
func (s *Sim) Elements() int { return s.nx * s.ny * s.nz }

// Ranges implements sim.Simulator with bounds that hold for the clamped
// dynamics below.
func (s *Sim) Ranges() [][2]float64 {
	span := float64(s.nx + s.ny + s.nz) // generous coordinate envelope
	return [][2]float64{
		{-2, span}, {-2, span}, {-2, span}, // coordinates
		{-50, 50}, {-50, 50}, {-50, 50}, // forces
		{-50, 50}, {-50, 50}, {-50, 50}, // accelerations
		{-10, 10}, {-10, 10}, {-10, 10}, // velocities
	}
}

// Step implements sim.Simulator: EOS → corner forces → integrate, each
// phase slab-parallel, then a fresh copy of all 12 arrays is returned.
func (s *Sim) Step(nWorkers int) []sim.Field {
	return sim.CloneFields(s.StepLent(nWorkers))
}

// StepLent implements sim.Lender: the same step, returned as views of the
// simulator's own twelve nodal arrays, which the next step updates in place.
func (s *Sim) StepLent(nWorkers int) []sim.Field {
	s.Advance(nWorkers)
	arrays := [][]float64{
		s.posX, s.posY, s.posZ,
		s.frcX, s.frcY, s.frcZ,
		s.accX, s.accY, s.accZ,
		s.velX, s.velY, s.velZ,
	}
	out := make([]sim.Field, len(arrays))
	for k, name := range s.Vars() {
		out[k] = sim.Field{Name: name, Data: arrays[k]}
	}
	return out
}

// Advance runs the physics of one step without copying out the state.
func (s *Sim) Advance(nWorkers int) {
	s.calcEOS(nWorkers)
	s.calcForces(nWorkers)
	s.integrate(nWorkers)
	s.step++
}

// calcEOS updates element pressure from energy and compression with an
// iterated sound-speed/viscosity evaluation — the compute-heavy kernel that
// gives the proxy its LULESH-like simulation cost.
func (s *Sim) calcEOS(nWorkers int) {
	ne := len(s.energy)
	sim.ParallelFor(ne, nWorkers, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			vol := s.volume[e]
			if vol < 0.1 {
				vol = 0.1
			}
			rho := 1.0 / vol
			p := (gamma - 1) * rho * s.energy[e]
			// Newton-iterated sound speed with artificial viscosity, kept
			// per-element to mirror LULESH's EOS inner loop cost.
			c := math.Sqrt(gamma * p * vol)
			for it := 0; it < 4; it++ {
				q := qCoef * rho * c * c * 1e-3
				c = math.Sqrt(gamma * (p + q) * vol)
			}
			s.pressure[e] = p + qCoef*rho*c*1e-3
		}
	})
}

// calcForces accumulates corner forces: each element pushes its 8 corner
// nodes outward along each axis in proportion to its pressure.
func (s *Sim) calcForces(nWorkers int) {
	nx, ny, nz := s.nx, s.ny, s.nz
	// Zero the force arrays, then gather per node (gather avoids races:
	// each node reads its up-to-8 adjacent elements).
	nn := nx * ny * nz
	sim.ParallelFor(nn, nWorkers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			z := i / (nx * ny)
			y := (i / nx) % ny
			x := i % nx
			var fx, fy, fz float64
			for dz := -1; dz <= 0; dz++ {
				ez := z + dz
				if ez < 0 || ez >= nz-1 {
					continue
				}
				for dy := -1; dy <= 0; dy++ {
					ey := y + dy
					if ey < 0 || ey >= ny-1 {
						continue
					}
					for dx := -1; dx <= 0; dx++ {
						ex := x + dx
						if ex < 0 || ex >= nx-1 {
							continue
						}
						p := s.pressure[s.elem(ex, ey, ez)] / 4
						// An element on the node's minus side (d == -1, node
						// is the element's + corner) pushes the node outward
						// in +; an element on the plus side pushes in -.
						if dx == -1 {
							fx += p
						} else {
							fx -= p
						}
						if dy == -1 {
							fy += p
						} else {
							fy -= p
						}
						if dz == -1 {
							fz += p
						} else {
							fz -= p
						}
					}
				}
			}
			s.frcX[i] = clamp(fx, -50, 50)
			s.frcY[i] = clamp(fy, -50, 50)
			s.frcZ[i] = clamp(fz, -50, 50)
		}
	})
}

// integrate advances accelerations, velocities and positions, then feeds
// the compression work back into element energy and volume.
func (s *Sim) integrate(nWorkers int) {
	nn := len(s.mass)
	sim.ParallelFor(nn, nWorkers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.accX[i] = clamp(s.frcX[i]/s.mass[i], -50, 50)
			s.accY[i] = clamp(s.frcY[i]/s.mass[i], -50, 50)
			s.accZ[i] = clamp(s.frcZ[i]/s.mass[i], -50, 50)
			s.velX[i] = clamp((s.velX[i]+s.accX[i]*dt)*0.999, -10, 10)
			s.velY[i] = clamp((s.velY[i]+s.accY[i]*dt)*0.999, -10, 10)
			s.velZ[i] = clamp((s.velZ[i]+s.accZ[i]*dt)*0.999, -10, 10)
			s.posX[i] += s.velX[i] * dt
			s.posY[i] += s.velY[i] * dt
			s.posZ[i] += s.velZ[i] * dt
		}
	})
	// Element update: volume change from corner velocities' divergence
	// proxy, pdV work capped to ±workLimit of the current energy for
	// stability, and explicit energy transport between neighboring elements
	// so the shock front actually propagates outward. Double-buffered so
	// the result is independent of traversal order and worker count.
	ex1, ey1, ez1 := s.nx-1, s.ny-1, s.nz-1
	ne := len(s.energy)
	sim.ParallelFor(ne, nWorkers, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			ez := e / (ex1 * ey1)
			ey := (e / ex1) % ey1
			ex := e % ex1
			n000 := s.node(ex, ey, ez)
			n111 := s.node(ex+1, ey+1, ez+1)
			div := (s.velX[n111] - s.velX[n000]) +
				(s.velY[n111] - s.velY[n000]) +
				(s.velZ[n111] - s.velZ[n000])
			s.volume[e] = clamp(s.volume[e]*(1+div*dt), 0.2, 5)
			en := s.energy[e]
			work := clamp(s.pressure[e]*div*dt, -workLimit*en, workLimit*en)
			en -= work
			// Six-neighbor transport toward the local mean.
			var sum float64
			var cnt int
			if ex > 0 {
				sum += s.energy[e-1]
				cnt++
			}
			if ex < ex1-1 {
				sum += s.energy[e+1]
				cnt++
			}
			if ey > 0 {
				sum += s.energy[e-ex1]
				cnt++
			}
			if ey < ey1-1 {
				sum += s.energy[e+ex1]
				cnt++
			}
			if ez > 0 {
				sum += s.energy[e-ex1*ey1]
				cnt++
			}
			if ez < ez1-1 {
				sum += s.energy[e+ex1*ey1]
				cnt++
			}
			if cnt > 0 {
				en += energyKap * (sum/float64(cnt) - s.energy[e])
			}
			s.energyNext[e] = clamp(en, energyMin, energyCap)
		}
	})
	s.energy, s.energyNext = s.energyNext, s.energy
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// StepCount returns how many steps have run.
func (s *Sim) StepCount() int { return s.step }

var _ sim.Lender = (*Sim)(nil)
