package tensor

import "fmt"

// blockSize is the cache-blocking tile edge for the GEMM kernels.  64
// float64 columns is 512 bytes per row strip, which keeps three tiles
// resident in a typical 32 KiB L1 cache.
const blockSize = 64

// The GEMM-family kernels below are row-sharded across the package worker
// pool: each shard owns a disjoint range of *output* rows and runs the
// serial kernel's exact per-element accumulation order inside it, so the
// results are bitwise identical at every worker count (the determinism
// contract tested in pool_test.go).

// MatMul returns a·b.
func MatMul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	gemmInto(out, a, b)
	return out
}

// gemmInto computes out += a·b with an ikj loop order, which streams b and
// out rows sequentially; out must be pre-sized (a.Rows × b.Cols).  Output
// rows are sharded across the worker pool.
func gemmInto(out, a, b *Dense) {
	flops := 2 * int64(a.Rows) * int64(a.Cols) * int64(b.Cols)
	parallelRows(a.Rows, flops, func(lo, hi int) {
		gemmRows(out, a, b, lo, hi)
	})
}

// gemmRows computes rows [lo,hi) of out += a·b, cache-blocked over the
// row range and the shared dimension.
func gemmRows(out, a, b *Dense, lo, hi int) {
	n := b.Cols
	for i0 := lo; i0 < hi; i0 += blockSize {
		i1 := min(i0+blockSize, hi)
		for k0 := 0; k0 < a.Cols; k0 += blockSize {
			k1 := min(k0+blockSize, a.Cols)
			for i := i0; i < i1; i++ {
				arow := a.Data[i*a.Cols : (i+1)*a.Cols]
				orow := out.Data[i*n : (i+1)*n]
				for k := k0; k < k1; k++ {
					aik := arow[k]
					if aik == 0 {
						continue
					}
					brow := b.Data[k*n : (k+1)*n]
					for j, bv := range brow {
						orow[j] += aik * bv
					}
				}
			}
		}
	}
}

// MatMulTA returns aᵀ·b without materializing the transpose.  Each shard
// owns output rows [lo,hi) — columns [lo,hi) of a — and streams a and b
// rows in the same k order as the serial kernel.
func MatMulTA(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTA %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	n := b.Cols
	flops := 2 * int64(a.Rows) * int64(a.Cols) * int64(b.Cols)
	parallelRows(a.Cols, flops, func(lo, hi int) {
		for k := 0; k < a.Rows; k++ {
			arow := a.Data[k*a.Cols : (k+1)*a.Cols]
			brow := b.Data[k*n : (k+1)*n]
			for i := lo; i < hi; i++ {
				av := arow[i]
				if av == 0 {
					continue
				}
				orow := out.Data[i*n : (i+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	})
	return out
}

// MatMulTB returns a·bᵀ without materializing the transpose; output rows
// are sharded across the worker pool.
func MatMulTB(a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTB %dx%d ·ᵀ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := newUninit(a.Rows, b.Rows)
	flops := 2 * int64(a.Rows) * int64(a.Cols) * int64(b.Rows)
	parallelRows(a.Rows, flops, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Data[i*a.Cols : (i+1)*a.Cols]
			orow := out.Data[i*b.Rows : (i+1)*b.Rows]
			for j := 0; j < b.Rows; j++ {
				brow := b.Data[j*b.Cols : (j+1)*b.Cols]
				s := 0.0
				for k, av := range arow {
					s += av * brow[k]
				}
				orow[j] = s
			}
		}
	})
	return out
}

// SymMatVecInto computes y = P·x for symmetric P, writing into y (n×1).
// It exists so that the optimizer's hot path allocates nothing.
func SymMatVecInto(y, p, x *Dense) {
	n := p.Rows
	if p.Cols != n || x.Rows != n || x.Cols != 1 || y.Rows != n || y.Cols != 1 {
		panic(fmt.Sprintf("tensor: SymMatVecInto P %dx%d x %dx%d y %dx%d",
			p.Rows, p.Cols, x.Rows, x.Cols, y.Rows, y.Cols))
	}
	MatVecInto(y.Data, p, x.Data)
}

// MatVecInto computes dst = a·x, one serial dot loop per row with rows
// sharded across the worker pool.  a may be a row slab of a larger
// matrix: each output element depends only on its own row, so a slab
// owner gets exactly the bits of the corresponding rows of the full
// product.
func MatVecInto(dst []float64, a *Dense, x []float64) {
	if len(dst) != a.Rows || len(x) != a.Cols {
		panic(fmt.Sprintf("tensor: MatVecInto %dx%d · %d into %d", a.Rows, a.Cols, len(x), len(dst)))
	}
	n := a.Cols
	flops := 2 * int64(a.Rows) * int64(n)
	parallelRows(a.Rows, flops, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := a.Data[i*n : (i+1)*n]
			s := 0.0
			for k, v := range row {
				s += v * x[k]
			}
			dst[i] = s
		}
	})
}

// Outer returns the outer product x·yᵀ of column vectors x (m×1) and y (n×1).
func Outer(x, y *Dense) *Dense {
	if x.Cols != 1 || y.Cols != 1 {
		panic(fmt.Sprintf("tensor: Outer wants column vectors, got %dx%d and %dx%d", x.Rows, x.Cols, y.Rows, y.Cols))
	}
	out := newUninit(x.Rows, y.Rows)
	flops := int64(x.Rows) * int64(y.Rows)
	parallelRows(x.Rows, flops, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xi := x.Data[i]
			row := out.Data[i*y.Rows : (i+1)*y.Rows]
			for j := 0; j < y.Rows; j++ {
				row[j] = xi * y.Data[j]
			}
		}
	})
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
