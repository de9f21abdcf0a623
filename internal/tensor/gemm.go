package tensor

import "fmt"

// The GEMM-family kernels below are row-sharded across the package worker
// pool: each shard owns a disjoint range of *output* rows and runs the
// serial kernel's exact per-element accumulation order inside it, so the
// results are bitwise identical at every worker count (the determinism
// contract tested in pool_test.go).
//
// Inside a shard the kernels hold a small register tile of independent
// output elements, so the tile's loads are shared and its accumulation
// chains run side by side.  Each element still sees the sequence of a
// plain one-element loop: the same initial value, k ascending, the same
// `acc += a*b` expression and, where the plain loop has it, the same skip
// of a zero a.  The tile shape changes how fast an output is computed,
// never its bits.

// MatMul returns a·b.
func MatMul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	gemmInto(out, a, b)
	return out
}

// gemmInto computes out += a·b; out must be pre-sized (a.Rows × b.Cols)
// and may hold a prefilled bias.  Output rows are sharded across the
// worker pool.
func gemmInto(out, a, b *Dense) {
	flops := 2 * int64(a.Rows) * int64(a.Cols) * int64(b.Cols)
	parallelRows(a.Rows, flops, func(lo, hi int) {
		gemmTile(out.Data, a.Data, b.Data, b.Cols, a.Cols, a.Cols, 1, lo, hi)
	})
}

// The GEMM blocks: a block of gemmKBlock rows and gemmNBlock columns of b
// is 16 KiB, so it stays in L1 while every output row pair of the shard
// runs over it.  The step's own GEMMs (inner dimension and width 8) are
// one block.
const (
	gemmKBlock = 64
	gemmNBlock = 32
)

// gemmTile computes rows [lo,hi) of out += A·b, where out is row-major
// with n columns, b is kd×n row-major and A(i,k) = a[i*ais + k*aks]: a
// row-major a has ais = kd and aks = 1, the transpose of a row-major a
// with m columns has ais = 1 and aks = m.  Every output starts from its
// value in out and adds A(i,k)·b[k][j] for ascending k, skipping
// A(i,k) == 0 (0·Inf is NaN, so a skip is not the same as adding zero).
// The k blocks run in ascending order, so blocking keeps each output's
// sequence; an output leaves registers only between blocks.
func gemmTile(out, a, b []float64, n, kd, ais, aks, lo, hi int) {
	for k0 := 0; k0 < kd; k0 += gemmKBlock {
		k1 := min(k0+gemmKBlock, kd)
		for j0 := 0; j0 < n; j0 += gemmNBlock {
			gemmBlock(out, a, b, n, ais, aks, lo, hi, j0, min(j0+gemmNBlock, n), k0, k1)
		}
	}
}

// gemmBlock adds the k ∈ [k0,k1) terms to the outputs in rows [lo,hi)
// and columns [j0,j1), in 2×4 register tiles walked by running offsets:
// per k, two a loads and one 4-wide view of a b row, which costs one
// bounds check instead of four (a 4×4 tile spills registers).
func gemmBlock(out, a, b []float64, n, ais, aks, lo, hi, j0, j1, k0, k1 int) {
	kn := k1 - k0
	i := lo
	for ; i+2 <= hi; i += 2 {
		o0 := out[i*n : (i+1)*n]
		o1 := out[(i+1)*n : (i+2)*n]
		a0k0 := i*ais + k0*aks
		j := j0
		for ; j+4 <= j1; j += 4 {
			c00, c01, c02, c03 := o0[j], o0[j+1], o0[j+2], o0[j+3]
			c10, c11, c12, c13 := o1[j], o1[j+1], o1[j+2], o1[j+3]
			ao, bo := a0k0, k0*n+j
			for k := 0; k < kn; k++ {
				a0, a1 := a[ao], a[ao+ais]
				bk := b[bo : bo+4 : bo+4]
				if a0 != 0 {
					c00 += a0 * bk[0]
					c01 += a0 * bk[1]
					c02 += a0 * bk[2]
					c03 += a0 * bk[3]
				}
				if a1 != 0 {
					c10 += a1 * bk[0]
					c11 += a1 * bk[1]
					c12 += a1 * bk[2]
					c13 += a1 * bk[3]
				}
				ao += aks
				bo += n
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = c10, c11, c12, c13
		}
		for ; j < j1; j++ {
			o0[j] = gemmElem(o0[j], a, b, a0k0, k0*n+j, n, kn, aks)
			o1[j] = gemmElem(o1[j], a, b, a0k0+ais, k0*n+j, n, kn, aks)
		}
	}
	if i < hi {
		o := out[i*n : (i+1)*n]
		for j := j0; j < j1; j++ {
			o[j] = gemmElem(o[j], a, b, i*ais+k0*aks, k0*n+j, n, kn, aks)
		}
	}
}

// gemmElem returns c + Σ a[ao+k*aks]·b[bo+k*n] over ascending k < kn,
// skipping zero a: one output of gemmBlock outside the full tiles.
func gemmElem(c float64, a, b []float64, ao, bo, n, kn, aks int) float64 {
	for k := 0; k < kn; k++ {
		if av := a[ao]; av != 0 {
			c += av * b[bo]
		}
		ao += aks
		bo += n
	}
	return c
}

// MatMulTA returns aᵀ·b without materializing the transpose: gemmTile
// reads a through transposed strides.  Each shard owns output rows
// [lo,hi), which are columns [lo,hi) of a.
func MatMulTA(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTA %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	flops := 2 * int64(a.Rows) * int64(a.Cols) * int64(b.Cols)
	parallelRows(a.Cols, flops, func(lo, hi int) {
		gemmTile(out.Data, a.Data, b.Data, b.Cols, a.Rows, 1, a.Cols, lo, hi)
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
		matMulTBRows(out.Data, a.Data, b.Data, a.Cols, b.Rows, lo, hi)
	})
	return out
}

// matMulTBRows writes rows [lo,hi) of out = a·bᵀ, for a with kd columns
// and b with n rows of kd: each output is 0 plus a[i][k]·b[j][k] over
// ascending k.  A pass over an a row fills 4 outputs at once.
func matMulTBRows(out, a, b []float64, kd, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a[i*kd : (i+1)*kd]
		orow := out[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*kd:][:len(arow)]
			b1 := b[(j+1)*kd:][:len(arow)]
			b2 := b[(j+2)*kd:][:len(arow)]
			b3 := b[(j+3)*kd:][:len(arow)]
			s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b[j*kd:][:len(arow)]
			s := 0.0
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
}

// MatVecInto computes dst = a·x with rows sharded across the worker
// pool: each output is 0 plus a[i][k]·x[k] over ascending k, and a pass
// over x fills 4 rows at once.  a may be a row slab of a larger matrix:
// each output element depends only on its own row, so a slab owner gets
// exactly the bits of the corresponding rows of the full product.
func MatVecInto(dst []float64, a *Dense, x []float64) {
	if len(dst) != a.Rows || len(x) != a.Cols {
		panic(fmt.Sprintf("tensor: MatVecInto %dx%d · %d into %d", a.Rows, a.Cols, len(x), len(dst)))
	}
	n := a.Cols
	flops := 2 * int64(a.Rows) * int64(n)
	parallelRows(a.Rows, flops, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			r0 := a.Data[i*n:][:len(x)]
			r1 := a.Data[(i+1)*n:][:len(x)]
			r2 := a.Data[(i+2)*n:][:len(x)]
			r3 := a.Data[(i+3)*n:][:len(x)]
			s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
			for k, xv := range x {
				s0 += r0[k] * xv
				s1 += r1[k] * xv
				s2 += r2[k] * xv
				s3 += r3[k] * xv
			}
			dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
		}
		for ; i < hi; i++ {
			row := a.Data[i*n:][:len(x)]
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
