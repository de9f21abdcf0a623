package deepmd

import (
	"fmt"
	"slices"

	"fekf/internal/dataset"
	"fekf/internal/md"
	"fekf/internal/tensor"
)

// EnvEntry records one occupied neighbor slot and the derivative of its R̃
// row with respect to the displacement vector, the constant geometric data
// the force chain rule needs.
type EnvEntry struct {
	Row  int           // row index within R[t]
	I, J int           // center and neighbor atom indices (global over the batch)
	A    [4][3]float64 // ∂R̃[Row,c]/∂d_dim
}

// Env is the stacked environment-matrix input of a minibatch: B images of
// Na atoms each, with per-neighbor-type matrices R[t] of shape
// ((B·Na·Nm_t) × 4).  Entries[t] lists the occupied slots of R[t].
type Env struct {
	Cfg     Config
	B       int   // number of images
	NaPer   int   // atoms per image
	Types   []int // center species, length B·Na (image-major)
	R       []*tensor.Dense
	Entries [][]EnvEntry
	// TypeRows[c] lists the global atom rows having center species c, in
	// ascending order: the gather indices for the per-species fitting net.
	TypeRows [][]int
}

// NumAtoms returns the total atom count B·Na.
func (e *Env) NumAtoms() int { return e.B * e.NaPer }

// BuildEnv constructs the environment input for a batch of systems, which
// must share the species table and atom count (images of one dataset).
func BuildEnv(cfg Config, systems []*md.System) (*Env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(systems) == 0 {
		return nil, fmt.Errorf("deepmd: BuildEnv with no systems")
	}
	na := systems[0].NumAtoms()
	for k, s := range systems {
		if s.NumAtoms() != na {
			return nil, fmt.Errorf("deepmd: image %d has %d atoms, image 0 has %d", k, s.NumAtoms(), na)
		}
		if len(s.Species) != cfg.NumSpecies {
			return nil, fmt.Errorf("deepmd: image %d has %d species, config %d", k, len(s.Species), cfg.NumSpecies)
		}
	}
	b := len(systems)
	ns := cfg.NumSpecies

	// Size every output exactly from the neighbor lists first: atoms per
	// center species, and occupied slots per neighbor species (an upper
	// bound: a slot whose s and ds are both zero is skipped below).
	nls := make([]*md.NeighborList, b)
	typeRows := make([]int, ns)
	slots := make([]int, ns)
	cnt := make([]int, ns)
	for ib, sys := range systems {
		nls[ib] = md.BuildNeighbors(sys, cfg.Rc)
		for i := 0; i < na; i++ {
			typeRows[sys.Types[i]]++
			clear(cnt)
			for _, nb := range nls[ib].Lists[i] {
				cnt[sys.Types[nb.J]]++
			}
			for t, c := range cnt {
				slots[t] += min(c, cfg.MaxNeighbors[t])
			}
		}
	}
	env := &Env{
		Cfg: cfg, B: b, NaPer: na,
		Types:    make([]int, 0, b*na),
		R:        make([]*tensor.Dense, ns),
		Entries:  make([][]EnvEntry, ns),
		TypeRows: make([][]int, ns),
	}
	for t := 0; t < ns; t++ {
		env.R[t] = tensor.New(b*na*cfg.MaxNeighbors[t], 4)
		env.Entries[t] = make([]EnvEntry, 0, slots[t])
		env.TypeRows[t] = make([]int, 0, typeRows[t])
	}
	sc := md.SmoothCutoff{Rcs: cfg.Rcs, Rc: cfg.Rc}

	// byType buckets one atom's neighbors by species; it is reused for
	// every atom of the batch.
	byType := make([][]md.Neighbor, ns)
	for ib, sys := range systems {
		nl := nls[ib]
		for i := 0; i < na; i++ {
			gi := ib*na + i // global atom row
			env.Types = append(env.Types, sys.Types[i])
			env.TypeRows[sys.Types[i]] = append(env.TypeRows[sys.Types[i]], gi)

			// bucket neighbors by species, nearest first
			for t := range byType {
				byType[t] = byType[t][:0]
			}
			for _, nb := range nl.Lists[i] {
				t := sys.Types[nb.J]
				byType[t] = append(byType[t], nb)
			}
			for t := range byType {
				slices.SortFunc(byType[t], nearer)
				nm := cfg.MaxNeighbors[t]
				lst := byType[t]
				if len(lst) > nm {
					lst = lst[:nm]
				}
				base := gi * nm
				for slot, nb := range lst {
					s, ds := sc.Eval(nb.R)
					if s == 0 && ds == 0 {
						continue
					}
					row := base + slot
					r := nb.R
					ux, uy, uz := nb.Dx/r, nb.Dy/r, nb.Dz/r
					env.R[t].Set(row, 0, s)
					env.R[t].Set(row, 1, s*ux)
					env.R[t].Set(row, 2, s*uy)
					env.R[t].Set(row, 3, s*uz)

					var a [4][3]float64
					u := [3]float64{ux, uy, uz}
					d := [3]float64{nb.Dx, nb.Dy, nb.Dz}
					for dim := 0; dim < 3; dim++ {
						a[0][dim] = ds * u[dim]
					}
					for c := 0; c < 3; c++ {
						for dim := 0; dim < 3; dim++ {
							v := ds * u[dim] * u[c]
							if c == dim {
								v += s / r
							}
							v -= s * d[c] * d[dim] / (r * r * r)
							a[1+c][dim] = v
						}
					}
					env.Entries[t] = append(env.Entries[t], EnvEntry{
						Row: row, I: gi, J: ib*na + nb.J, A: a,
					})
				}
			}
		}
	}
	return env, nil
}

// nearer orders neighbors by distance.  pdqsort only asks whether
// nearer(a, b) < 0, which holds exactly when the old sort.Slice less
// (a.R < b.R) did, so it visits and swaps the same elements and tied
// neighbors keep the same slot order.
func nearer(a, b md.Neighbor) int {
	if a.R < b.R {
		return -1
	}
	if b.R < a.R {
		return 1
	}
	return 0
}

// SnapshotSystem wraps a dataset snapshot as an md.System for BuildEnv.
func SnapshotSystem(ds *dataset.Dataset, snap *dataset.Snapshot) *md.System {
	return &md.System{
		Box:     snap.Box,
		Pos:     snap.Pos,
		Types:   snap.Types,
		Species: ds.Species,
	}
}

// BuildBatchEnv builds the environment input for the dataset snapshots
// selected by idx.
func BuildBatchEnv(cfg Config, ds *dataset.Dataset, idx []int) (*Env, error) {
	systems := make([]*md.System, len(idx))
	for k, i := range idx {
		systems[k] = SnapshotSystem(ds, &ds.Snapshots[i])
	}
	return BuildEnv(cfg, systems)
}
