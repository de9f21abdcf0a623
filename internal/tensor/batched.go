package tensor

import "fmt"

// Batched (block-diagonal) GEMM kernels.  A "batched" matrix stacks B
// equally-sized blocks vertically: a (B·m)×k Dense holds B blocks of m×k.
// These kernels mirror the cuBLAS batched GEMMs real DeePMD
// implementations use for the per-atom symmetry-preserving descriptor.

// BatchedMatMul computes per-block a_i·b_i for a (B·m)×k and b (B·k)×n,
// returning (B·m)×n.
func BatchedMatMul(a, b *Dense, batch int) *Dense {
	if batch <= 0 || a.Rows%batch != 0 || b.Rows%batch != 0 {
		panic(fmt.Sprintf("tensor: BatchedMatMul batch %d with %d and %d rows", batch, a.Rows, b.Rows))
	}
	m := a.Rows / batch
	k := a.Cols
	if b.Rows/batch != k {
		panic(fmt.Sprintf("tensor: BatchedMatMul inner dim %d vs %d", k, b.Rows/batch))
	}
	n := b.Cols
	out := New(a.Rows, n)
	for bi := 0; bi < batch; bi++ {
		gemmTile(out.Data[bi*m*n:(bi+1)*m*n], a.Data[bi*m*k:(bi+1)*m*k], b.Data[bi*k*n:(bi+1)*k*n],
			n, k, k, 1, 0, m)
	}
	return out
}

// BatchedMatMulTA computes per-block a_iᵀ·b_i for a (B·k)×m and b (B·k)×n,
// returning (B·m)×n.
func BatchedMatMulTA(a, b *Dense, batch int) *Dense {
	if batch <= 0 || a.Rows%batch != 0 || b.Rows%batch != 0 {
		panic(fmt.Sprintf("tensor: BatchedMatMulTA batch %d with %d and %d rows", batch, a.Rows, b.Rows))
	}
	k := a.Rows / batch
	if b.Rows/batch != k {
		panic(fmt.Sprintf("tensor: BatchedMatMulTA inner dim %d vs %d", k, b.Rows/batch))
	}
	m := a.Cols
	n := b.Cols
	out := New(batch*m, n)
	for bi := 0; bi < batch; bi++ {
		gemmTile(out.Data[bi*m*n:(bi+1)*m*n], a.Data[bi*k*m:(bi+1)*k*m], b.Data[bi*k*n:(bi+1)*k*n],
			n, k, 1, m, 0, m)
	}
	return out
}

// BatchedMatMulTB computes per-block a_i·b_iᵀ for a (B·m)×k and b (B·n)×k,
// returning (B·m)×n.
func BatchedMatMulTB(a, b *Dense, batch int) *Dense {
	if batch <= 0 || a.Rows%batch != 0 || b.Rows%batch != 0 {
		panic(fmt.Sprintf("tensor: BatchedMatMulTB batch %d with %d and %d rows", batch, a.Rows, b.Rows))
	}
	m := a.Rows / batch
	n := b.Rows / batch
	k := a.Cols
	if b.Cols != k {
		panic(fmt.Sprintf("tensor: BatchedMatMulTB inner dim %d vs %d", k, b.Cols))
	}
	out := newUninit(batch*m, n)
	for bi := 0; bi < batch; bi++ {
		matMulTBRows(out.Data[bi*m*n:(bi+1)*m*n], a.Data[bi*m*k:(bi+1)*m*k], b.Data[bi*n*k:(bi+1)*n*k],
			k, n, 0, m)
	}
	return out
}
