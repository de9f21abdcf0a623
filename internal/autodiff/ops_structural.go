package autodiff

import (
	"fmt"

	"fekf/internal/tensor"
)

// Structural ops: data movement primitives the model graph needs around
// the batched descriptor algebra.  Reshape is a zero-cost view (contiguous
// reshape launches no kernel on real devices, so it bypasses the launch
// counter); the others move memory and count as one kernel each.

// Reshape returns a view of a with shape r×c (element count preserved).
func (g *Graph) Reshape(a *Var, r, c int) *Var {
	out := a.Value.Reshape(r, c)
	ar, ac := a.Rows(), a.Cols()
	v := &Var{g: g, Value: out, requires: a.requires, inputs: []*Var{a}, name: "reshape"}
	if a.requires {
		v.back = func(grad *Var) []*Var {
			return []*Var{g.Reshape(grad, ar, ac)}
		}
	}
	g.nodes = append(g.nodes, v)
	return v
}

// GatherRows selects rows of a by index (duplicates allowed).
func (g *Graph) GatherRows(a *Var, idx []int) *Var {
	c := a.Cols()
	out := tensor.New(len(idx), c)
	for k, i := range idx {
		if i < 0 || i >= a.Rows() {
			panic(fmt.Sprintf("autodiff: GatherRows index %d of %d rows", i, a.Rows()))
		}
		copy(out.Data[k*c:(k+1)*c], a.Value.Data[i*c:(i+1)*c])
	}
	rows := a.Rows()
	return g.op("gather_rows", out, 0, []*Var{a}, func(grad *Var) []*Var {
		return []*Var{g.ScatterRows(grad, idx, rows)}
	})
}

// ScatterRows accumulates the rows of a into a zero total×c matrix at the
// given indices; it is the adjoint of GatherRows.
func (g *Graph) ScatterRows(a *Var, idx []int, total int) *Var {
	if len(idx) != a.Rows() {
		panic(fmt.Sprintf("autodiff: ScatterRows %d indices for %d rows", len(idx), a.Rows()))
	}
	c := a.Cols()
	out := tensor.New(total, c)
	for k, i := range idx {
		if i < 0 || i >= total {
			panic(fmt.Sprintf("autodiff: ScatterRows index %d of %d rows", i, total))
		}
		dst := out.Data[i*c : (i+1)*c]
		src := a.Value.Data[k*c : (k+1)*c]
		for j, v := range src {
			dst[j] += v
		}
	}
	return g.op("scatter_rows", out, 0, []*Var{a}, func(grad *Var) []*Var {
		return []*Var{g.GatherRows(grad, idx)}
	})
}

// BlockSum sums consecutive r-row blocks of a (B·r)×c input, returning
// B×c; it is the per-image energy reduction E_img = Σᵢ Eᵢ.
func (g *Graph) BlockSum(a *Var, r int) *Var {
	if r <= 0 || a.Rows()%r != 0 {
		panic(fmt.Sprintf("autodiff: BlockSum of %d rows by blocks of %d", a.Rows(), r))
	}
	b := a.Rows() / r
	c := a.Cols()
	out := tensor.New(b, c)
	for bi := 0; bi < b; bi++ {
		dst := out.Data[bi*c : (bi+1)*c]
		for j := 0; j < r; j++ {
			src := a.Value.Data[(bi*r+j)*c : (bi*r+j+1)*c]
			for k, v := range src {
				dst[k] += v
			}
		}
	}
	return g.op("block_sum", out, int64(a.Value.Len()), []*Var{a}, func(grad *Var) []*Var {
		return []*Var{g.BlockRepeat(grad, r)}
	})
}

// BlockRepeat repeats each row of a B×c input r times, returning (B·r)×c;
// it is the adjoint of BlockSum.
func (g *Graph) BlockRepeat(a *Var, r int) *Var {
	out := tensor.BlockRepeat(a.Value, r)
	return g.op("block_repeat", out, int64(out.Len()), []*Var{a}, func(grad *Var) []*Var {
		return []*Var{g.BlockSum(grad, r)}
	})
}
