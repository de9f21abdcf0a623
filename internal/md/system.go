// Package md is the molecular-dynamics substrate of the reproduction.  The
// paper trains DeePMD on *ab initio* (DFT) trajectories of eight bulk
// systems (Table 3); offline and in pure Go we generate the equivalent
// labelled data with classical many-body potentials integrated by Langevin
// dynamics at the paper's temperatures.  What the optimizer study needs
// from the data is (a) energies and forces that are smooth consistent
// functions of the atomic configuration and (b) configurational diversity
// across temperatures — both properties are preserved by this substitution
// (see DESIGN.md).
//
// Units follow the "metal" convention: Å, eV, fs, amu, Kelvin, electron
// charges.
package md

import (
	"fmt"
	"math"
	"math/rand"
)

// Physical constants in metal units.
const (
	// KB is the Boltzmann constant in eV/K.
	KB = 8.617333262e-5
	// ForceToAccel converts eV/Å/amu to Å/fs².
	ForceToAccel = 9.64853329e-3
	// CoulombK is e²/(4πε₀) in eV·Å.
	CoulombK = 14.399645
)

// Species describes one chemical element in a system.
type Species struct {
	Name   string
	Mass   float64 // amu
	Charge float64 // partial charge in e (used by ionic potentials)
}

// System is a periodic orthorhombic simulation cell.
type System struct {
	Box     [3]float64 // box edge lengths, Å
	Pos     []float64  // 3N positions
	Vel     []float64  // 3N velocities, Å/fs
	Types   []int      // species index per atom
	Species []Species
}

// NumAtoms returns the number of atoms in the system.
func (s *System) NumAtoms() int { return len(s.Types) }

// Clone returns a deep copy of the system.
func (s *System) Clone() *System {
	c := &System{Box: s.Box}
	c.Pos = append([]float64(nil), s.Pos...)
	c.Vel = append([]float64(nil), s.Vel...)
	c.Types = append([]int(nil), s.Types...)
	c.Species = append([]Species(nil), s.Species...)
	return c
}

// Wrap maps every atom back into the primary cell.
func (s *System) Wrap() {
	for i := 0; i < s.NumAtoms(); i++ {
		for d := 0; d < 3; d++ {
			l := s.Box[d]
			x := math.Mod(s.Pos[3*i+d], l)
			if x < 0 {
				x += l
			}
			s.Pos[3*i+d] = x
		}
	}
}

// Displacement returns the minimum-image vector from atom i to atom j and
// its length.
func (s *System) Displacement(i, j int) (dx, dy, dz, r float64) {
	dx = s.Pos[3*j] - s.Pos[3*i]
	dy = s.Pos[3*j+1] - s.Pos[3*i+1]
	dz = s.Pos[3*j+2] - s.Pos[3*i+2]
	dx = minimumImage(dx, s.Box[0])
	dy = minimumImage(dy, s.Box[1])
	dz = minimumImage(dz, s.Box[2])
	r = math.Sqrt(dx*dx + dy*dy + dz*dz)
	return
}

func minimumImage(d, l float64) float64 {
	if d > 0.5*l {
		d -= l
	} else if d < -0.5*l {
		d += l
	}
	return d
}

// InitVelocities draws Maxwell-Boltzmann velocities for temperature T and
// removes the center-of-mass drift.
func (s *System) InitVelocities(T float64, rng *rand.Rand) {
	if len(s.Vel) != 3*s.NumAtoms() {
		s.Vel = make([]float64, 3*s.NumAtoms())
	}
	var px, py, pz, mTot float64
	for i := 0; i < s.NumAtoms(); i++ {
		m := s.Species[s.Types[i]].Mass
		std := math.Sqrt(KB * T / m * ForceToAccel) // Å/fs
		s.Vel[3*i] = rng.NormFloat64() * std
		s.Vel[3*i+1] = rng.NormFloat64() * std
		s.Vel[3*i+2] = rng.NormFloat64() * std
		px += m * s.Vel[3*i]
		py += m * s.Vel[3*i+1]
		pz += m * s.Vel[3*i+2]
		mTot += m
	}
	for i := 0; i < s.NumAtoms(); i++ {
		s.Vel[3*i] -= px / mTot
		s.Vel[3*i+1] -= py / mTot
		s.Vel[3*i+2] -= pz / mTot
	}
}

// KineticEnergy returns the total kinetic energy in eV.
func (s *System) KineticEnergy() float64 {
	ke := 0.0
	for i := 0; i < s.NumAtoms(); i++ {
		m := s.Species[s.Types[i]].Mass
		v2 := s.Vel[3*i]*s.Vel[3*i] + s.Vel[3*i+1]*s.Vel[3*i+1] + s.Vel[3*i+2]*s.Vel[3*i+2]
		ke += 0.5 * m * v2 / ForceToAccel
	}
	return ke
}

// Temperature returns the instantaneous kinetic temperature in K.
func (s *System) Temperature() float64 {
	n := s.NumAtoms()
	if n == 0 {
		return 0
	}
	return 2 * s.KineticEnergy() / (3 * float64(n) * KB)
}

// Validate checks the internal consistency of the system layout.
func (s *System) Validate() error {
	n := s.NumAtoms()
	if len(s.Pos) != 3*n {
		return fmt.Errorf("md: %d atoms but %d position scalars", n, len(s.Pos))
	}
	if len(s.Vel) != 0 && len(s.Vel) != 3*n {
		return fmt.Errorf("md: %d atoms but %d velocity scalars", n, len(s.Vel))
	}
	for i, t := range s.Types {
		if t < 0 || t >= len(s.Species) {
			return fmt.Errorf("md: atom %d has species index %d of %d", i, t, len(s.Species))
		}
	}
	for d := 0; d < 3; d++ {
		if s.Box[d] <= 0 {
			return fmt.Errorf("md: non-positive box edge %d: %v", d, s.Box[d])
		}
	}
	return nil
}
