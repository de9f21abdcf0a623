package deepmd

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fekf/internal/md"
	"fekf/internal/tensor"
)

// legacyBuildEnv is the environment builder as it was before BuildEnv
// pre-sized its outputs and sorted with slices.SortFunc: a fresh bucket
// slice per atom, append-grown entries and sort.Slice.  It is the reference
// TestBuildEnvMatchesLegacy holds BuildEnv to bit for bit.
func legacyBuildEnv(cfg Config, systems []*md.System) *Env {
	na := systems[0].NumAtoms()
	b := len(systems)
	env := &Env{
		Cfg: cfg, B: b, NaPer: na,
		Types:    make([]int, 0, b*na),
		R:        make([]*tensor.Dense, cfg.NumSpecies),
		Entries:  make([][]EnvEntry, cfg.NumSpecies),
		TypeRows: make([][]int, cfg.NumSpecies),
	}
	for t := 0; t < cfg.NumSpecies; t++ {
		env.R[t] = tensor.New(b*na*cfg.MaxNeighbors[t], 4)
	}
	sc := md.SmoothCutoff{Rcs: cfg.Rcs, Rc: cfg.Rc}
	for ib, sys := range systems {
		nl := md.BuildNeighbors(sys, cfg.Rc)
		for i := 0; i < na; i++ {
			gi := ib*na + i
			env.Types = append(env.Types, sys.Types[i])
			env.TypeRows[sys.Types[i]] = append(env.TypeRows[sys.Types[i]], gi)
			byType := make([][]md.Neighbor, cfg.NumSpecies)
			for _, nb := range nl.Lists[i] {
				t := sys.Types[nb.J]
				byType[t] = append(byType[t], nb)
			}
			for t := range byType {
				sort.Slice(byType[t], func(a, b int) bool { return byType[t][a].R < byType[t][b].R })
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
	return env
}

// TestBuildEnvMatchesLegacy pins BuildEnv bitwise to the legacy builder on
// every Table 3 system at both slot budgets.  Each batch holds the perfect
// lattice, where many neighbors tie in distance and the sort decides
// which of them get the slots, and a thermally jittered copy.
func TestBuildEnvMatchesLegacy(t *testing.T) {
	specs := md.Systems()
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, name := range names {
		spec := specs[name]
		tiny, _ := spec.TinyBuild()
		paper, _ := spec.Build(1)
		for _, tc := range []struct {
			budget string
			sys    *md.System
			cfg    Config
		}{
			{"tiny", tiny, TinyConfig(tiny)},
			{"paper", paper, PaperConfig(spec, paper)},
		} {
			t.Run(name+"/"+tc.budget, func(t *testing.T) {
				jit := tc.sys.Clone()
				rng := rand.New(rand.NewSource(7))
				for i := range jit.Pos {
					jit.Pos[i] += 0.05 * rng.NormFloat64()
				}
				batch := []*md.System{tc.sys, jit}
				got, err := BuildEnv(tc.cfg, batch)
				if err != nil {
					t.Fatal(err)
				}
				requireEnvBitwise(t, got, legacyBuildEnv(tc.cfg, batch))
			})
		}
	}
}

func requireEnvBitwise(t *testing.T, got, want *Env) {
	t.Helper()
	if !slices.Equal(got.Types, want.Types) {
		t.Fatal("Types differ")
	}
	for s := range want.R {
		for i, v := range want.R[s].Data {
			if math.Float64bits(got.R[s].Data[i]) != math.Float64bits(v) {
				t.Fatalf("R[%d] element %d: %v, want %v", s, i, got.R[s].Data[i], v)
			}
		}
		if !slices.Equal(got.TypeRows[s], want.TypeRows[s]) {
			t.Fatalf("TypeRows[%d] differ", s)
		}
		if len(got.Entries[s]) != len(want.Entries[s]) {
			t.Fatalf("Entries[%d]: %d entries, want %d", s, len(got.Entries[s]), len(want.Entries[s]))
		}
		for k, w := range want.Entries[s] {
			g := got.Entries[s][k]
			if g.Row != w.Row || g.I != w.I || g.J != w.J {
				t.Fatalf("Entries[%d][%d] = row %d (%d,%d), want row %d (%d,%d)",
					s, k, g.Row, g.I, g.J, w.Row, w.I, w.J)
			}
			for c := range w.A {
				for d := range w.A[c] {
					if math.Float64bits(g.A[c][d]) != math.Float64bits(w.A[c][d]) {
						t.Fatalf("Entries[%d][%d].A[%d][%d] differs", s, k, c, d)
					}
				}
			}
		}
	}
}
