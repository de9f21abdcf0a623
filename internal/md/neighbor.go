package md

import (
	"fmt"
	"math"
)

// Neighbor is one entry of an atom's neighbor list: the neighbor's index,
// the displacement vector from the central atom to it (including the
// periodic image shift), and the distance.  Sx,Sy,Sz record the constant
// image shift so the displacement can be refreshed cheaply as atoms move
// between full rebuilds.
type Neighbor struct {
	J          int
	Dx, Dy, Dz float64
	R          float64
	Sx, Sy, Sz float64
}

// NeighborList holds, for every atom, all atoms within the cutoff.
type NeighborList struct {
	Cutoff float64
	Lists  [][]Neighbor
}

// Refresh recomputes every entry's displacement and distance from current
// positions, keeping the stored image shifts.  It must be called after
// atoms move (every MD step); a full rebuild is only needed once an atom
// may have crossed the list's skin margin.
func (nl *NeighborList) Refresh(s *System) {
	for i := range nl.Lists {
		lst := nl.Lists[i]
		for k := range lst {
			nb := &lst[k]
			nb.Dx = s.Pos[3*nb.J] - s.Pos[3*i] + nb.Sx
			nb.Dy = s.Pos[3*nb.J+1] - s.Pos[3*i+1] + nb.Sy
			nb.Dz = s.Pos[3*nb.J+2] - s.Pos[3*i+2] + nb.Sz
			nb.R = math.Sqrt(nb.Dx*nb.Dx + nb.Dy*nb.Dy + nb.Dz*nb.Dz)
		}
	}
}

// BuildNeighborsBrute builds the neighbor list with the O(N²) all-pairs
// scan.  It is the correctness reference for the cell-list version and is
// fine for the small cells used in tests.
func BuildNeighborsBrute(s *System, cutoff float64) *NeighborList {
	n := s.NumAtoms()
	nl := &NeighborList{Cutoff: cutoff, Lists: make([][]Neighbor, n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dx, dy, dz, r := s.Displacement(i, j)
			if r < cutoff {
				nl.Lists[i] = append(nl.Lists[i], Neighbor{
					J: j, Dx: dx, Dy: dy, Dz: dz, R: r,
					Sx: dx - (s.Pos[3*j] - s.Pos[3*i]),
					Sy: dy - (s.Pos[3*j+1] - s.Pos[3*i+1]),
					Sz: dz - (s.Pos[3*j+2] - s.Pos[3*i+2]),
				})
			}
		}
	}
	return nl
}

// BuildNeighborsImages builds the neighbor list scanning explicit periodic
// images, which is required when the cutoff exceeds half the box edge (the
// common case for the paper's 32-108 atom bulk cells).  Each directed pair
// (i→j, image) is a separate entry; an atom also sees its own periodic
// images.  Pair potentials therefore use the full-list half-weight
// formulation.
func BuildNeighborsImages(s *System, cutoff float64) *NeighborList {
	n := s.NumAtoms()
	nl := &NeighborList{Cutoff: cutoff, Lists: make([][]Neighbor, n)}
	var reps [3]int
	for d := 0; d < 3; d++ {
		reps[d] = int(math.Ceil(cutoff / s.Box[d]))
	}
	cut2 := cutoff * cutoff
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			bx := s.Pos[3*j] - s.Pos[3*i]
			by := s.Pos[3*j+1] - s.Pos[3*i+1]
			bz := s.Pos[3*j+2] - s.Pos[3*i+2]
			for nx := -reps[0]; nx <= reps[0]; nx++ {
				for ny := -reps[1]; ny <= reps[1]; ny++ {
					for nz := -reps[2]; nz <= reps[2]; nz++ {
						if i == j && nx == 0 && ny == 0 && nz == 0 {
							continue
						}
						sx := float64(nx) * s.Box[0]
						sy := float64(ny) * s.Box[1]
						sz := float64(nz) * s.Box[2]
						dx := bx + sx
						dy := by + sy
						dz := bz + sz
						r2 := dx*dx + dy*dy + dz*dz
						if r2 < cut2 {
							nl.Lists[i] = append(nl.Lists[i], Neighbor{
								J: j, Dx: dx, Dy: dy, Dz: dz, R: math.Sqrt(r2),
								Sx: sx, Sy: sy, Sz: sz,
							})
						}
					}
				}
			}
		}
	}
	return nl
}

// MaxNeighborWork bounds the neighbour scan one configuration may ask
// BuildNeighbors for, both as linked cells allocated and as explicit-image
// pair distances tested.  The paper-scale cells of Systems (at most 108
// atoms) need under 8% of it.
const MaxNeighborWork = 1 << 22

// CheckBox reports whether BuildNeighbors can build the neighbour list of n
// atoms in box at cutoff within MaxNeighborWork: every edge must be
// positive and finite, and both the cell grid Π⌊L/rc⌋ and the image scan
// N²·Π(2⌈rc/L⌉+1) must stay under the bound.  Untrusted configurations are
// checked with it before any neighbour list is built.
func CheckBox(box [3]float64, cutoff float64, n int) error {
	cells, pairs := 1.0, float64(n)*float64(n)
	for d, l := range box {
		if !(l > 0) || math.IsInf(l, 1) {
			return fmt.Errorf("box dimension %d is %g", d, l)
		}
		cells *= math.Floor(l / cutoff)
		pairs *= 2*math.Ceil(cutoff/l) + 1
	}
	if cells > MaxNeighborWork || pairs > MaxNeighborWork {
		return fmt.Errorf("box %v at cutoff %g Å with %d atoms needs %.3g cells and %.3g image pairs, bound %d",
			box, cutoff, n, cells, pairs, MaxNeighborWork)
	}
	return nil
}

// BuildNeighbors builds the neighbor list with a linked-cell decomposition,
// O(N) for homogeneous density.  When the box is too small for the cell
// method (fewer than 3 cells per dimension, or cutoff beyond half the
// shortest edge) it falls back to the explicit-image scan, which is exact
// for any box size.
func BuildNeighbors(s *System, cutoff float64) *NeighborList {
	var nc [3]int
	for d := 0; d < 3; d++ {
		if cutoff >= 0.5*s.Box[d] {
			return BuildNeighborsImages(s, cutoff)
		}
		nc[d] = int(s.Box[d] / cutoff)
		if nc[d] < 3 {
			return BuildNeighborsImages(s, cutoff)
		}
	}
	n := s.NumAtoms()
	ncells := nc[0] * nc[1] * nc[2]
	heads := make([]int, ncells)
	for i := range heads {
		heads[i] = -1
	}
	next := make([]int, n)
	cellOf := func(i int) int {
		var c [3]int
		for d := 0; d < 3; d++ {
			x := math.Mod(s.Pos[3*i+d], s.Box[d])
			if x < 0 {
				x += s.Box[d]
			}
			c[d] = int(x / s.Box[d] * float64(nc[d]))
			if c[d] >= nc[d] {
				c[d] = nc[d] - 1
			}
		}
		return (c[0]*nc[1]+c[1])*nc[2] + c[2]
	}
	cells := make([]int, n)
	for i := 0; i < n; i++ {
		c := cellOf(i)
		cells[i] = c
		next[i] = heads[c]
		heads[c] = i
	}

	nl := &NeighborList{Cutoff: cutoff, Lists: make([][]Neighbor, n)}
	cut2 := cutoff * cutoff
	for i := 0; i < n; i++ {
		ci := cells[i]
		cx := ci / (nc[1] * nc[2])
		cy := (ci / nc[2]) % nc[1]
		cz := ci % nc[2]
		for ox := -1; ox <= 1; ox++ {
			for oy := -1; oy <= 1; oy++ {
				for oz := -1; oz <= 1; oz++ {
					jx := (cx + ox + nc[0]) % nc[0]
					jy := (cy + oy + nc[1]) % nc[1]
					jz := (cz + oz + nc[2]) % nc[2]
					for j := heads[(jx*nc[1]+jy)*nc[2]+jz]; j != -1; j = next[j] {
						if j == i {
							continue
						}
						dx, dy, dz, r := s.Displacement(i, j)
						if dx*dx+dy*dy+dz*dz < cut2 {
							nl.Lists[i] = append(nl.Lists[i], Neighbor{
								J: j, Dx: dx, Dy: dy, Dz: dz, R: r,
								Sx: dx - (s.Pos[3*j] - s.Pos[3*i]),
								Sy: dy - (s.Pos[3*j+1] - s.Pos[3*i+1]),
								Sz: dz - (s.Pos[3*j+2] - s.Pos[3*i+2]),
							})
						}
					}
				}
			}
		}
	}
	return nl
}

// SmoothCutoff implements the DeePMD switching function s(r): 1/r for
// r < rcs, a smooth interpolation to 0 on [rcs, rc], and 0 beyond.  It is
// shared by the descriptor (the s(|r_ij|) factor of the environment matrix)
// and by the classical potentials that need a differentiable truncation.
type SmoothCutoff struct {
	Rcs, Rc float64
}

// Eval returns s(r) and its derivative ds/dr.
func (c SmoothCutoff) Eval(r float64) (s, ds float64) {
	switch {
	case r <= 0:
		return 0, 0
	case r < c.Rcs:
		return 1 / r, -1 / (r * r)
	case r < c.Rc:
		// u goes 0→1 on [rcs, rc]; weight w(u) = u³(-6u²+15u-10)+1 is the
		// DeePMD-kit quintic switch: w(0)=1, w(1)=0, w'=w''=0 at both ends.
		u := (r - c.Rcs) / (c.Rc - c.Rcs)
		w := u*u*u*(-6*u*u+15*u-10) + 1
		dw := (u * u * (-30*u*u + 60*u - 30)) / (c.Rc - c.Rcs)
		return w / r, dw/r - w/(r*r)
	default:
		return 0, 0
	}
}
