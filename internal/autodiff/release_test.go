package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"fekf/internal/tensor"
)

// TestReleaseRecyclesOnlyWhatTheGraphOwns: Release hands each op output
// back to tensor.New exactly once, and never a leaf's buffer (an input, a
// parameter, a caller's seed), a Reshape view on its own, or an op output
// that passes a leaf through.
func TestReleaseRecyclesOnlyWhatTheGraphOwns(t *testing.T) {
	const r, c = 24, 32 // above the recycling floor
	rng := rand.New(rand.NewSource(5))
	x, w, seed := randDense(rng, r, c), randDense(rng, r, c), randDense(rng, r, c)
	leaves := map[*float64]string{&x.Data[0]: "input", &w.Data[0]: "param", &seed.Data[0]: "seed"}
	before := map[string][]float64{}
	for _, l := range []*tensor.Dense{x, w, seed} {
		before[leaves[&l.Data[0]]] = append([]float64(nil), l.Data...)
	}

	g := NewGraph(nil)
	xv := g.Leaf(x, true)
	wv := g.Param(w)
	y := g.Mul(xv, wv)
	z := g.Scale(2, g.Reshape(g.Reshape(y, c, r), r, c))
	pass := g.Custom("pass", x, 0, []*Var{xv}, nil)
	out := g.Add(z, pass)
	grads := Grad([]*Var{out}, []*tensor.Dense{seed}, []*Var{xv, wv})
	owned := map[*float64]bool{}
	for _, v := range append([]*Var{y, z, out}, grads...) {
		owned[&v.Value.Data[0]] = true
	}
	g.Release()

	seen := map[*float64]bool{}
	reused := 0
	for i := 0; i < 64; i++ {
		m := tensor.New(r, c)
		p := &m.Data[0]
		if name, ok := leaves[p]; ok {
			t.Fatalf("the %s's buffer was recycled", name)
		}
		if seen[p] {
			t.Fatal("one buffer was handed out twice: it was recycled twice")
		}
		seen[p] = true
		if owned[p] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("Release recycled none of the graph's op outputs")
	}
	for _, l := range []*tensor.Dense{x, w, seed} {
		name := leaves[&l.Data[0]]
		for i, v := range before[name] {
			if math.Float64bits(l.Data[i]) != math.Float64bits(v) {
				t.Fatalf("the %s changed at element %d after Release", name, i)
			}
		}
	}
}
