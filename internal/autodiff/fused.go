package autodiff

import "fekf/internal/tensor"

// Fused layer ops: the paper's Opt2 replaces chains of framework kernels
// with fused ones (torch.compile).  When Graph.Fused is set, the layer
// helpers below execute composites like tanh(X·W+b) as a single simulated
// kernel, and their backward rules use the fused TanhBwd primitive; when it
// is clear, they build the same math out of unfused primitives, so kernel
// counts reproduce the framework baseline.

// AffineTanh returns tanh(x·w + 1⊗b): the E0/F0 layer of the DeePMD nets.
func (g *Graph) AffineTanh(x, w, b *Var) *Var {
	if !g.Fused {
		return g.Tanh(g.AddRowVec(g.MatMul(x, w), b))
	}
	out := tensor.AffineTanh(x.Value, w.Value, b.Value)
	flops := 2*int64(x.Rows())*int64(x.Cols())*int64(w.Cols()) + 5*int64(out.Len())
	var node *Var
	node = g.op("affine_tanh", out, flops, []*Var{x, w, b}, func(grad *Var) []*Var {
		dpre := g.TanhBwd(grad, node)
		return []*Var{g.MatMulTB(dpre, w), g.MatMulTA(x, dpre), g.ColSum(dpre)}
	})
	return node
}

// ResidualAffineTanh returns x + tanh(x·w + 1⊗b): the residual E1/E2 and
// F1/F2 layers.  w must be square.
func (g *Graph) ResidualAffineTanh(x, w, b *Var) *Var {
	if !g.Fused {
		return g.Add(x, g.Tanh(g.AddRowVec(g.MatMul(x, w), b)))
	}
	out := tensor.ResidualAffineTanh(x.Value, w.Value, b.Value)
	flops := 2*int64(x.Rows())*int64(x.Cols())*int64(w.Cols()) + 6*int64(out.Len())
	var node *Var
	node = g.op("res_affine_tanh", out, flops, []*Var{x, w, b}, func(grad *Var) []*Var {
		// y = x + t where t = tanh(x·w+b); the tanh output is t = y - x.
		t := g.Sub(node, x)
		dpre := g.TanhBwd(grad, t)
		dx := g.Add(grad, g.MatMulTB(dpre, w))
		return []*Var{dx, g.MatMulTA(x, dpre), g.ColSum(dpre)}
	})
	return node
}

// Affine returns x·w + 1⊗b without an activation: the final fitting layer
// F3.  In fused mode the GEMM and bias broadcast are one kernel.
func (g *Graph) Affine(x, w, b *Var) *Var {
	if !g.Fused {
		return g.AddRowVec(g.MatMul(x, w), b)
	}
	out := tensor.Affine(x.Value, w.Value, b.Value)
	flops := 2*int64(x.Rows())*int64(x.Cols())*int64(w.Cols()) + int64(out.Len())
	return g.op("affine", out, flops, []*Var{x, w, b}, func(grad *Var) []*Var {
		return []*Var{g.MatMulTB(grad, w), g.MatMulTA(x, grad), g.ColSum(grad)}
	})
}

// TanhBwd returns grad ⊙ (1−y²) in one fused kernel, where y is a tanh (or
// tanh-shaped) activation output.  Its own backward is expressed with
// primitives, keeping the engine closed under double differentiation.
func (g *Graph) TanhBwd(grad, y *Var) *Var {
	out := tensor.TanhBackward(grad.Value, y.Value)
	return g.op("tanh_bwd", out, 3*int64(out.Len()), []*Var{grad, y}, func(h *Var) []*Var {
		dGrad := g.TanhBwd(h, y)
		dY := g.Scale(-2, g.Mul(g.Mul(h, grad), y))
		return []*Var{dGrad, dY}
	})
}
