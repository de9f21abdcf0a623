package autodiff

import (
	"fmt"

	"fekf/internal/tensor"
)

// This file defines the primitive ops.  Each op launches exactly one
// simulated kernel; its backward rule is expressed in terms of other
// primitives so the whole engine is closed under differentiation.

// Add returns a+b element-wise.
func (g *Graph) Add(a, b *Var) *Var {
	out := tensor.Add(a.Value, b.Value)
	return g.op("add", out, int64(out.Len()), []*Var{a, b}, func(grad *Var) []*Var {
		return []*Var{grad, grad}
	})
}

// Sub returns a-b element-wise.
func (g *Graph) Sub(a, b *Var) *Var {
	out := tensor.Sub(a.Value, b.Value)
	return g.op("sub", out, int64(out.Len()), []*Var{a, b}, func(grad *Var) []*Var {
		return []*Var{grad, g.Scale(-1, grad)}
	})
}

// Mul returns the element-wise product a⊙b.
func (g *Graph) Mul(a, b *Var) *Var {
	out := tensor.MulElem(a.Value, b.Value)
	return g.op("mul", out, int64(out.Len()), []*Var{a, b}, func(grad *Var) []*Var {
		return []*Var{g.Mul(grad, b), g.Mul(grad, a)}
	})
}

// Scale returns s·a for a compile-time scalar s.
func (g *Graph) Scale(s float64, a *Var) *Var {
	out := tensor.Scale(s, a.Value)
	return g.op("scale", out, int64(out.Len()), []*Var{a}, func(grad *Var) []*Var {
		return []*Var{g.Scale(s, grad)}
	})
}

// MulScalar returns s·a where s is a 1×1 graph node (gradient flows to s).
func (g *Graph) MulScalar(a, s *Var) *Var {
	if s.Value.Len() != 1 {
		panic("autodiff: MulScalar wants 1x1 scalar node")
	}
	out := tensor.Scale(s.Scalar(), a.Value)
	return g.op("mulscalar", out, int64(out.Len()), []*Var{a, s}, func(grad *Var) []*Var {
		return []*Var{g.MulScalar(grad, s), g.Sum(g.Mul(grad, a))}
	})
}

// MatMul returns a·b.
func (g *Graph) MatMul(a, b *Var) *Var {
	out := tensor.MatMul(a.Value, b.Value)
	flops := 2 * int64(a.Rows()) * int64(a.Cols()) * int64(b.Cols())
	return g.op("matmul", out, flops, []*Var{a, b}, func(grad *Var) []*Var {
		return []*Var{g.MatMulTB(grad, b), g.MatMulTA(a, grad)}
	})
}

// MatMulTA returns aᵀ·b without materializing the transpose.
func (g *Graph) MatMulTA(a, b *Var) *Var {
	out := tensor.MatMulTA(a.Value, b.Value)
	flops := 2 * int64(a.Cols()) * int64(a.Rows()) * int64(b.Cols())
	return g.op("matmul_ta", out, flops, []*Var{a, b}, func(grad *Var) []*Var {
		// out = aᵀb: da = b·gradᵀ, db = a·grad
		return []*Var{g.MatMulTB(b, grad), g.MatMul(a, grad)}
	})
}

// MatMulTB returns a·bᵀ without materializing the transpose.
func (g *Graph) MatMulTB(a, b *Var) *Var {
	out := tensor.MatMulTB(a.Value, b.Value)
	flops := 2 * int64(a.Rows()) * int64(a.Cols()) * int64(b.Rows())
	return g.op("matmul_tb", out, flops, []*Var{a, b}, func(grad *Var) []*Var {
		// out = a·bᵀ: da = grad·b, db = gradᵀ·a
		return []*Var{g.MatMul(grad, b), g.MatMulTA(grad, a)}
	})
}

// Transpose returns aᵀ.
func (g *Graph) Transpose(a *Var) *Var {
	out := tensor.Transpose(a.Value)
	return g.op("transpose", out, 0, []*Var{a}, func(grad *Var) []*Var {
		return []*Var{g.Transpose(grad)}
	})
}

// Tanh returns element-wise tanh(a).
func (g *Graph) Tanh(a *Var) *Var {
	out := tensor.Tanh(a.Value)
	var v *Var
	v = g.op("tanh", out, 4*int64(out.Len()), []*Var{a}, func(grad *Var) []*Var {
		return []*Var{g.Mul(grad, g.OneMinusSquare(v))}
	})
	return v
}

// OneMinusSquare returns 1−a² element-wise (the tanh derivative expressed
// in the activation output).
func (g *Graph) OneMinusSquare(a *Var) *Var {
	out := tensor.TanhPrimeFromOutput(a.Value)
	return g.op("one_minus_sq", out, 2*int64(out.Len()), []*Var{a}, func(grad *Var) []*Var {
		return []*Var{g.Scale(-2, g.Mul(grad, a))}
	})
}

// Sum reduces a to a 1×1 scalar node.
func (g *Graph) Sum(a *Var) *Var {
	out := tensor.FromSlice(1, 1, []float64{tensor.Sum(a.Value)})
	r, c := a.Rows(), a.Cols()
	return g.op("sum", out, int64(a.Value.Len()), []*Var{a}, func(grad *Var) []*Var {
		return []*Var{g.Expand(grad, r, c)}
	})
}

// Expand broadcasts a 1×1 scalar node to an r×c matrix.
func (g *Graph) Expand(s *Var, r, c int) *Var {
	if s.Value.Len() != 1 {
		panic("autodiff: Expand wants 1x1 node")
	}
	out := tensor.New(r, c)
	out.Fill(s.Scalar())
	return g.op("expand", out, int64(r*c), []*Var{s}, func(grad *Var) []*Var {
		return []*Var{g.Sum(grad)}
	})
}

// AddRowVec adds a 1×c bias row b to every row of a.
func (g *Graph) AddRowVec(a, b *Var) *Var {
	out := tensor.AddRowVec(a.Value, b.Value)
	return g.op("add_bias", out, int64(out.Len()), []*Var{a, b}, func(grad *Var) []*Var {
		return []*Var{grad, g.ColSum(grad)}
	})
}

// ColSum reduces a to a 1×c row of column sums.
func (g *Graph) ColSum(a *Var) *Var {
	out := tensor.ColSum(a.Value)
	rows := a.Rows()
	return g.op("colsum", out, int64(a.Value.Len()), []*Var{a}, func(grad *Var) []*Var {
		return []*Var{g.RepeatRows(grad, rows)}
	})
}

// RepeatRows tiles a 1×c row vector into r identical rows.
func (g *Graph) RepeatRows(a *Var, r int) *Var {
	if a.Rows() != 1 {
		panic("autodiff: RepeatRows wants a 1xC row")
	}
	c := a.Cols()
	out := tensor.New(r, c)
	for i := 0; i < r; i++ {
		copy(out.Data[i*c:(i+1)*c], a.Value.Data)
	}
	return g.op("repeat_rows", out, int64(r*c), []*Var{a}, func(grad *Var) []*Var {
		return []*Var{g.ColSum(grad)}
	})
}

// SliceCols extracts columns [lo,hi) of a.
func (g *Graph) SliceCols(a *Var, lo, hi int) *Var {
	out := tensor.SliceCols(a.Value, lo, hi)
	cols := a.Cols()
	return g.op("slice_cols", out, 0, []*Var{a}, func(grad *Var) []*Var {
		return []*Var{g.PadCols(grad, lo, cols)}
	})
}

// PadCols embeds a into columns [lo,lo+a.Cols) of a zero r×total matrix.
func (g *Graph) PadCols(a *Var, lo, total int) *Var {
	out := tensor.New(a.Rows(), total)
	tensor.AccumulateCols(out, lo, a.Value)
	cols := a.Cols()
	return g.op("pad_cols", out, 0, []*Var{a}, func(grad *Var) []*Var {
		return []*Var{g.SliceCols(grad, lo, lo+cols)}
	})
}

// SliceRows extracts rows [lo,hi) of a.
func (g *Graph) SliceRows(a *Var, lo, hi int) *Var {
	if lo < 0 || hi > a.Rows() || lo > hi {
		panic(fmt.Sprintf("autodiff: SliceRows [%d,%d) of %d rows", lo, hi, a.Rows()))
	}
	c := a.Cols()
	out := tensor.New(hi-lo, c)
	copy(out.Data, a.Value.Data[lo*c:hi*c])
	rows := a.Rows()
	return g.op("slice_rows", out, 0, []*Var{a}, func(grad *Var) []*Var {
		return []*Var{g.PadRows(grad, lo, rows)}
	})
}

// PadRows embeds a into rows [lo,lo+a.Rows) of a zero total×c matrix.
func (g *Graph) PadRows(a *Var, lo, total int) *Var {
	c := a.Cols()
	out := tensor.New(total, c)
	copy(out.Data[lo*c:], a.Value.Data)
	rows := a.Rows()
	return g.op("pad_rows", out, 0, []*Var{a}, func(grad *Var) []*Var {
		return []*Var{g.SliceRows(grad, lo, lo+rows)}
	})
}

// ConcatRows stacks nodes vertically; all must share a column count.
func (g *Graph) ConcatRows(parts ...*Var) *Var {
	if len(parts) == 0 {
		panic("autodiff: ConcatRows with no parts")
	}
	c := parts[0].Cols()
	rows := 0
	for _, p := range parts {
		if p.Cols() != c {
			panic("autodiff: ConcatRows column mismatch")
		}
		rows += p.Rows()
	}
	out := tensor.New(rows, c)
	off := 0
	bounds := make([][2]int, len(parts))
	for i, p := range parts {
		copy(out.Data[off*c:], p.Value.Data)
		bounds[i] = [2]int{off, off + p.Rows()}
		off += p.Rows()
	}
	return g.op("concat_rows", out, 0, parts, func(grad *Var) []*Var {
		outs := make([]*Var, len(parts))
		for i := range parts {
			outs[i] = g.SliceRows(grad, bounds[i][0], bounds[i][1])
		}
		return outs
	})
}

// Square returns a² element-wise.
func (g *Graph) Square(a *Var) *Var { return g.Mul(a, a) }

// Dot returns the inner product of two equally-shaped nodes as a 1×1 node.
func (g *Graph) Dot(a, b *Var) *Var { return g.Sum(g.Mul(a, b)) }
