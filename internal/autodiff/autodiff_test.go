package autodiff

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fekf/internal/device"
	"fekf/internal/tensor"
)

// numGrad computes the central finite-difference gradient of f at x.
func numGrad(f func(x *tensor.Dense) float64, x *tensor.Dense) *tensor.Dense {
	const h = 1e-6
	g := tensor.New(x.Rows, x.Cols)
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		fp := f(x)
		x.Data[i] = orig - h
		fm := f(x)
		x.Data[i] = orig
		g.Data[i] = (fp - fm) / (2 * h)
	}
	return g
}

// checkGrad compares the autodiff gradient of build (a scalar-valued graph
// function of one leaf) against finite differences.
func checkGrad(t *testing.T, name string, x *tensor.Dense, build func(g *Graph, x *Var) *Var) {
	t.Helper()
	g := NewGraph(nil)
	xv := g.Leaf(x, true)
	out := build(g, xv)
	got := GradScalar(out, []*Var{xv})[0].Value
	want := numGrad(func(xx *tensor.Dense) float64 {
		gg := NewGraph(nil)
		return build(gg, gg.Leaf(xx, true)).Scalar()
	}, x)
	if !tensor.Equal(got, want, 1e-4) {
		t.Fatalf("%s: autodiff grad %v != numeric %v", name, got, want)
	}
}

func randDense(rng *rand.Rand, r, c int) *tensor.Dense {
	return tensor.RandNormal(r, c, 0.5, rng)
}

func TestGradElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randDense(rng, 3, 4)
	c := randDense(rng, 3, 4)
	checkGrad(t, "sum", x, func(g *Graph, xv *Var) *Var { return g.Sum(xv) })
	checkGrad(t, "add", x, func(g *Graph, xv *Var) *Var { return g.Sum(g.Add(xv, g.Const(c))) })
	checkGrad(t, "sub", x, func(g *Graph, xv *Var) *Var { return g.Sum(g.Sub(g.Const(c), xv)) })
	checkGrad(t, "mul", x, func(g *Graph, xv *Var) *Var { return g.Sum(g.Mul(xv, g.Const(c))) })
	checkGrad(t, "scale", x, func(g *Graph, xv *Var) *Var { return g.Sum(g.Scale(-2.5, xv)) })
	checkGrad(t, "square", x, func(g *Graph, xv *Var) *Var { return g.Sum(g.Square(xv)) })
	checkGrad(t, "tanh", x, func(g *Graph, xv *Var) *Var { return g.Sum(g.Tanh(xv)) })
	checkGrad(t, "oneminsq", x, func(g *Graph, xv *Var) *Var { return g.Sum(g.OneMinusSquare(xv)) })
	checkGrad(t, "dot", x, func(g *Graph, xv *Var) *Var { return g.Dot(xv, g.Const(c)) })
}

func TestGradMatMulFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randDense(rng, 4, 3)
	w := randDense(rng, 3, 5)
	wt := randDense(rng, 5, 3)
	a4 := randDense(rng, 4, 6)
	checkGrad(t, "matmul_lhs", x, func(g *Graph, xv *Var) *Var {
		return g.Sum(g.MatMul(xv, g.Const(w)))
	})
	checkGrad(t, "matmul_rhs", w, func(g *Graph, wv *Var) *Var {
		return g.Sum(g.MatMul(g.Const(x), wv))
	})
	checkGrad(t, "matmul_ta", x, func(g *Graph, xv *Var) *Var {
		return g.Sum(g.MatMulTA(xv, g.Const(a4)))
	})
	checkGrad(t, "matmul_tb", x, func(g *Graph, xv *Var) *Var {
		return g.Sum(g.MatMulTB(xv, g.Const(wt)))
	})
	checkGrad(t, "transpose", x, func(g *Graph, xv *Var) *Var {
		return g.Sum(g.MatMul(g.Transpose(xv), g.Const(a4)))
	})
}

func TestGradStructuralOps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randDense(rng, 4, 6)
	b := randDense(rng, 1, 6)
	checkGrad(t, "add_bias_x", x, func(g *Graph, xv *Var) *Var {
		return g.Sum(g.Tanh(g.AddRowVec(xv, g.Const(b))))
	})
	checkGrad(t, "add_bias_b", b, func(g *Graph, bv *Var) *Var {
		return g.Sum(g.Tanh(g.AddRowVec(g.Const(x), bv)))
	})
	checkGrad(t, "colsum", x, func(g *Graph, xv *Var) *Var {
		return g.Sum(g.Square(g.ColSum(xv)))
	})
	checkGrad(t, "repeat_rows", b, func(g *Graph, bv *Var) *Var {
		return g.Sum(g.Square(g.RepeatRows(bv, 5)))
	})
	checkGrad(t, "slice_cols", x, func(g *Graph, xv *Var) *Var {
		return g.Sum(g.Square(g.SliceCols(xv, 1, 4)))
	})
	checkGrad(t, "pad_cols", x, func(g *Graph, xv *Var) *Var {
		return g.Sum(g.Square(g.PadCols(xv, 2, 10)))
	})
	checkGrad(t, "slice_rows", x, func(g *Graph, xv *Var) *Var {
		return g.Sum(g.Square(g.SliceRows(xv, 1, 3)))
	})
	checkGrad(t, "pad_rows", x, func(g *Graph, xv *Var) *Var {
		return g.Sum(g.Square(g.PadRows(xv, 1, 7)))
	})
	checkGrad(t, "concat_rows", x, func(g *Graph, xv *Var) *Var {
		other := g.Const(randDense(rand.New(rand.NewSource(9)), 2, 6))
		return g.Sum(g.Square(g.ConcatRows(xv, other)))
	})
	s := tensor.FromSlice(1, 1, []float64{0.7})
	checkGrad(t, "expand", s, func(g *Graph, sv *Var) *Var {
		return g.Sum(g.Square(g.Expand(sv, 3, 4)))
	})
	checkGrad(t, "mulscalar_s", s, func(g *Graph, sv *Var) *Var {
		return g.Sum(g.Square(g.MulScalar(g.Const(x), sv)))
	})
	checkGrad(t, "mulscalar_a", x, func(g *Graph, xv *Var) *Var {
		return g.Sum(g.Square(g.MulScalar(xv, g.Const(s))))
	})
}

func TestGradFusedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randDense(rng, 5, 3)
	w := randDense(rng, 3, 4)
	wsq := randDense(rng, 3, 3)
	b := randDense(rng, 1, 4)
	bsq := randDense(rng, 1, 3)
	for _, fused := range []bool{false, true} {
		g := NewGraph(nil)
		g.Fused = fused
		xv, wv, bv := g.Leaf(x, true), g.Leaf(w, true), g.Leaf(b, true)
		out := g.Sum(g.Square(g.AffineTanh(xv, wv, bv)))
		grads := GradScalar(out, []*Var{xv, wv, bv})
		for i, leafVal := range []*tensor.Dense{x, w, b} {
			idx := i
			want := numGrad(func(v *tensor.Dense) float64 {
				gg := NewGraph(nil)
				gg.Fused = fused
				leaves := []*tensor.Dense{x, w, b}
				leaves[idx] = v
				return gg.Sum(gg.Square(gg.AffineTanh(
					gg.Leaf(leaves[0], true), gg.Leaf(leaves[1], true), gg.Leaf(leaves[2], true)))).Scalar()
			}, leafVal)
			if !tensor.Equal(grads[i].Value, want, 1e-4) {
				t.Fatalf("fused=%v AffineTanh grad %d mismatch", fused, i)
			}
		}

		g2 := NewGraph(nil)
		g2.Fused = fused
		xv2, wv2, bv2 := g2.Leaf(x, true), g2.Leaf(wsq, true), g2.Leaf(bsq, true)
		out2 := g2.Sum(g2.Square(g2.ResidualAffineTanh(xv2, wv2, bv2)))
		grads2 := GradScalar(out2, []*Var{xv2, wv2, bv2})
		want2 := numGrad(func(v *tensor.Dense) float64 {
			gg := NewGraph(nil)
			gg.Fused = fused
			return gg.Sum(gg.Square(gg.ResidualAffineTanh(
				gg.Leaf(v, true), gg.Leaf(wsq, true), gg.Leaf(bsq, true)))).Scalar()
		}, x)
		if !tensor.Equal(grads2[0].Value, want2, 1e-4) {
			t.Fatalf("fused=%v ResidualAffineTanh x-grad mismatch", fused)
		}
		_ = grads2

		g3 := NewGraph(nil)
		g3.Fused = fused
		out3 := g3.Sum(g3.Square(g3.Affine(g3.Leaf(x, true), g3.Const(w), g3.Const(b))))
		want3 := numGrad(func(v *tensor.Dense) float64 {
			gg := NewGraph(nil)
			gg.Fused = fused
			return gg.Sum(gg.Square(gg.Affine(gg.Leaf(v, true), gg.Const(w), gg.Const(b)))).Scalar()
		}, x)
		got3 := GradScalar(out3, []*Var{g3.nodes[0]})[0].Value
		if !tensor.Equal(got3, want3, 1e-4) {
			t.Fatalf("fused=%v Affine grad mismatch", fused)
		}
	}
}

// TestFusedMatchesUnfusedForward checks the central Opt2 claim: fusion
// changes kernel counts, never values.
func TestFusedMatchesUnfusedForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randDense(rng, 7, 4)
	w := randDense(rng, 4, 4)
	b := randDense(rng, 1, 4)
	devU := device.New("u", device.A100())
	devF := device.New("f", device.A100())
	gu := NewGraph(devU)
	gf := NewGraph(devF)
	gf.Fused = true
	outU := gu.ResidualAffineTanh(gu.Leaf(x, true), gu.Const(w), gu.Const(b))
	outF := gf.ResidualAffineTanh(gf.Leaf(x, true), gf.Const(w), gf.Const(b))
	if !tensor.Equal(outU.Value, outF.Value, 1e-12) {
		t.Fatal("fused forward differs from unfused")
	}
	if devF.Counters().Kernels >= devU.Counters().Kernels {
		t.Fatalf("fused launches (%d) should be fewer than unfused (%d)",
			devF.Counters().Kernels, devU.Counters().Kernels)
	}
}

// TestDoubleBackward exercises grad-of-grad: h(W) = Σ c ⊙ d(Σ tanh(xW))/dx,
// differentiated with respect to W and checked against finite differences.
// This is the exact mechanism force-based Kalman updates rely on.
func TestDoubleBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randDense(rng, 4, 3)
	w := randDense(rng, 3, 3)
	c := randDense(rng, 4, 3)

	scalarOfW := func(wVal *tensor.Dense) float64 {
		g := NewGraph(nil)
		xv := g.Leaf(x, true)
		wv := g.Leaf(wVal, true)
		e := g.Sum(g.Tanh(g.MatMul(xv, wv)))
		dx := GradScalar(e, []*Var{xv})[0]
		return g.Dot(dx, g.Const(c)).Scalar()
	}

	g := NewGraph(nil)
	xv := g.Leaf(x, true)
	wv := g.Leaf(w, true)
	e := g.Sum(g.Tanh(g.MatMul(xv, wv)))
	dx := GradScalar(e, []*Var{xv})[0]
	h := g.Dot(dx, g.Const(c))
	dW := GradScalar(h, []*Var{wv})[0].Value

	want := numGrad(scalarOfW, w)
	if !tensor.Equal(dW, want, 1e-4) {
		t.Fatalf("double backward:\n got %v\nwant %v", dW, want)
	}
}

// TestDoubleBackwardFused repeats the double-backward check with fused
// kernels enabled, covering TanhBwd's own backward rule.
func TestDoubleBackwardFused(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randDense(rng, 4, 3)
	w := randDense(rng, 3, 3)
	b := randDense(rng, 1, 3)
	c := randDense(rng, 4, 3)

	scalarOfW := func(wVal *tensor.Dense) float64 {
		g := NewGraph(nil)
		g.Fused = true
		xv := g.Leaf(x, true)
		e := g.Sum(g.AffineTanh(xv, g.Leaf(wVal, true), g.Const(b)))
		dx := GradScalar(e, []*Var{xv})[0]
		return g.Dot(dx, g.Const(c)).Scalar()
	}

	g := NewGraph(nil)
	g.Fused = true
	xv := g.Leaf(x, true)
	wv := g.Leaf(w, true)
	e := g.Sum(g.AffineTanh(xv, wv, g.Const(b)))
	dx := GradScalar(e, []*Var{xv})[0]
	h := g.Dot(dx, g.Const(c))
	dW := GradScalar(h, []*Var{wv})[0].Value

	want := numGrad(scalarOfW, w)
	if !tensor.Equal(dW, want, 1e-4) {
		t.Fatalf("fused double backward:\n got %v\nwant %v", dW, want)
	}
}

// TestGradReusedNode checks adjoint accumulation when one node feeds two
// consumers: f = sum(x⊙x) + sum(tanh(x)) so df/dx = 2x + (1-tanh²x).
func TestGradReusedNode(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randDense(rng, 3, 3)
	g := NewGraph(nil)
	xv := g.Leaf(x, true)
	f := g.Add(g.Sum(g.Mul(xv, xv)), g.Sum(g.Tanh(xv)))
	got := GradScalar(f, []*Var{xv})[0].Value
	want := tensor.New(3, 3)
	for i, v := range x.Data {
		th := math.Tanh(v)
		want.Data[i] = 2*v + (1 - th*th)
	}
	if !tensor.Equal(got, want, 1e-10) {
		t.Fatalf("reused node grad:\n got %v\nwant %v", got, want)
	}
}

func TestGradUnreachableIsZero(t *testing.T) {
	g := NewGraph(nil)
	x := g.Leaf(tensor.Vector([]float64{1, 2}), true)
	y := g.Leaf(tensor.Vector([]float64{3, 4}), true)
	out := g.Sum(g.Square(x))
	grads := GradScalar(out, []*Var{x, y})
	if tensor.Norm2(grads[1].Value) != 0 {
		t.Fatal("unreachable wrt should get zero grad")
	}
	if grads[1].Rows() != 2 || grads[1].Cols() != 1 {
		t.Fatal("zero grad has wrong shape")
	}
}

func TestConstGetsNoGrad(t *testing.T) {
	g := NewGraph(nil)
	c := g.Const(tensor.Vector([]float64{1}))
	if c.requires {
		t.Fatal("const must not require grad")
	}
	p := g.Param(tensor.Vector([]float64{1}))
	if !p.requires {
		t.Fatal("param must require grad")
	}
}

// Property: gradient of a random composite is linear in the seed.
func TestPropGradLinearInSeed(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := randDense(r, 3, 3)
		w := randDense(r, 3, 3)
		build := func(s float64) *tensor.Dense {
			g := NewGraph(nil)
			xv := g.Leaf(x, true)
			out := g.Tanh(g.MatMul(xv, g.Const(w)))
			sd := tensor.New(3, 3)
			sd.Fill(s)
			return Grad([]*Var{out}, []*tensor.Dense{sd}, []*Var{xv})[0].Value
		}
		g1 := build(1)
		g3 := build(3)
		return tensor.Equal(tensor.Scale(3, g1), g3, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceAccountingAndRelease(t *testing.T) {
	dev := device.New("t", device.A100())
	g := NewGraph(dev)
	x := g.Leaf(tensor.Vector([]float64{1, 2, 3}), true)
	out := g.Sum(g.Tanh(x))
	_ = GradScalar(out, []*Var{x})
	c := dev.Counters()
	if c.Kernels == 0 || c.LiveBytes == 0 {
		t.Fatalf("expected kernel launches and live bytes, got %+v", c)
	}
	g.Release()
	if got := dev.Counters().LiveBytes; got != 0 {
		t.Fatalf("live bytes after release = %d", got)
	}
	if len(g.nodes) != 0 {
		t.Fatal("nodes not cleared on release")
	}
}

func TestGradMultiOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randDense(rng, 2, 2)
	g := NewGraph(nil)
	xv := g.Leaf(x, true)
	a := g.Sum(g.Square(xv))   // d/dx = 2x
	b := g.Sum(g.Scale(3, xv)) // d/dx = 3
	seeds := []*tensor.Dense{nil, nil}
	got := Grad([]*Var{a, b}, seeds, []*Var{xv})[0].Value
	want := tensor.New(2, 2)
	for i, v := range x.Data {
		want.Data[i] = 2*v + 3
	}
	if !tensor.Equal(got, want, 1e-10) {
		t.Fatalf("multi-output grad = %v want %v", got, want)
	}
}
