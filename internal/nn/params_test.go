package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"fekf/internal/autodiff"
	"fekf/internal/tensor"
)

func buildSet(rng *rand.Rand) *ParamSet {
	ps := &ParamSet{}
	NewDense(ps, "embed0", 1, 4, rng)
	NewDense(ps, "embed1", 4, 4, rng)
	NewDense(ps, "fit0", 8, 3, rng)
	NewDense(ps, "fit1", 3, 1, rng)
	return ps
}

func TestRegisterAndCounts(t *testing.T) {
	ps := buildSet(rand.New(rand.NewSource(1)))
	// embed0: 1*4+4=8, embed1: 4*4+4=20, fit0: 8*3+3=27, fit1: 3*1+1=4
	if ps.NumParams() != 8+20+27+4 {
		t.Fatalf("NumParams = %d", ps.NumParams())
	}
	ts := ps.Tensors()
	if len(ts) != 8 || ts[0].Len() != 4 || ts[1].Len() != 4 {
		t.Fatalf("registered %d tensors", len(ts))
	}
}

func TestLayerSizesGroupsWeightAndBias(t *testing.T) {
	ps := buildSet(rand.New(rand.NewSource(2)))
	got := ps.LayerSizes()
	want := []int{8, 20, 27, 4}
	if len(got) != len(want) {
		t.Fatalf("LayerSizes = %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LayerSizes = %v want %v", got, want)
		}
	}
}

func TestFlattenSetAddRoundTrip(t *testing.T) {
	ps := buildSet(rand.New(rand.NewSource(3)))
	v := ps.FlattenValues()
	if len(v) != ps.NumParams() {
		t.Fatalf("flat len %d", len(v))
	}
	delta := make([]float64, len(v))
	for i := range delta {
		delta[i] = 0.5
	}
	ps.AddFlat(delta)
	v2 := ps.FlattenValues()
	for i := range v {
		if math.Abs(v2[i]-v[i]-0.5) > 1e-15 {
			t.Fatal("AddFlat wrong")
		}
	}
	ps.SetFlat(v)
	v3 := ps.FlattenValues()
	for i := range v {
		if v3[i] != v[i] {
			t.Fatal("SetFlat wrong")
		}
	}
}

func TestFlattenAlignedMatchesGradOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ps := &ParamSet{}
	l := NewDense(ps, "layer", 2, 2, rng)
	g := autodiff.NewGraph(nil)
	var vars []*autodiff.Var
	for _, p := range ps.Tensors() {
		vars = append(vars, g.Param(p))
	}
	x := g.Const(tensor.RandNormal(3, 2, 1, rng))
	out := g.Sum(g.AffineTanh(x, vars[0], vars[1]))
	grads := autodiff.GradScalar(out, vars)
	gt := make([]*tensor.Dense, len(grads))
	for i, gv := range grads {
		gt[i] = gv.Value
	}
	flat := ps.FlattenAligned(gt)
	if len(flat) != ps.NumParams() {
		t.Fatalf("flat grad len %d", len(flat))
	}
	// the first W elements of flat must be the W-grad in row-major order
	if flat[0] != grads[0].Value.Data[0] || flat[l.W.Len()] != grads[1].Value.Data[0] {
		t.Fatal("FlattenAligned ordering mismatch")
	}
	if !slices.ContainsFunc(flat, func(v float64) bool { return v != 0 }) {
		t.Fatal("gradient identically zero")
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	ps := buildSet(rand.New(rand.NewSource(5)))
	c := buildSet(rand.New(rand.NewSource(6)))
	c.Tensors()[0].Data[0] = 123
	ps.CopyFrom(c)
	if ps.Tensors()[0].Data[0] != 123 {
		t.Fatal("CopyFrom did not copy")
	}
	c.Tensors()[0].Data[0] = 7
	if ps.Tensors()[0].Data[0] != 123 {
		t.Fatal("CopyFrom shares storage")
	}
}

func TestSetFlatWrongLengthPanics(t *testing.T) {
	ps := buildSet(rand.New(rand.NewSource(7)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ps.SetFlat(make([]float64, 3))
}
