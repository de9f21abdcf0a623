package tensor

import (
	"fmt"
	"math"
)

// This file holds the fused kernels the paper's system optimizations are
// built from.  The unfused counterparts are compositions of the primitives
// in tensor.go/gemm.go; the fused versions compute the same values in a
// single pass so the simulated device charges one kernel launch and no
// intermediate allocations, mirroring Opt2 (kernel fusion) and Opt3 (the
// handwritten P-update kernel and Pg reuse) of Section 3.4.

// AffineTanh returns tanh(x·w + 1⊗b) in one fused pass, where b is a 1×c
// bias row broadcast over rows.  It is the embedding/fitting layer kernel.
func AffineTanh(x, w, b *Dense) *Dense {
	if x.Cols != w.Rows || b.Rows != 1 || b.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: AffineTanh x %dx%d w %dx%d b %dx%d",
			x.Rows, x.Cols, w.Rows, w.Cols, b.Rows, b.Cols))
	}
	out := newUninit(x.Rows, w.Cols)
	for i := 0; i < x.Rows; i++ {
		copy(out.Data[i*w.Cols:(i+1)*w.Cols], b.Data)
	}
	gemmInto(out, x, w)
	for i, v := range out.Data {
		out.Data[i] = math.Tanh(v)
	}
	return out
}

// ResidualAffineTanh returns x + tanh(x·w + 1⊗b) in one fused pass; w must
// be square so the residual shapes match (the E1/E2 and F1/F2 layers of the
// DeePMD embedding and fitting nets).
func ResidualAffineTanh(x, w, b *Dense) *Dense {
	if w.Rows != w.Cols {
		panic(fmt.Sprintf("tensor: ResidualAffineTanh needs square w, got %dx%d", w.Rows, w.Cols))
	}
	out := AffineTanh(x, w, b)
	for i, v := range x.Data {
		out.Data[i] += v
	}
	return out
}

// Affine returns x·w + 1⊗b with the bias added in place on the GEMM
// output, the same values as AddRowVec(MatMul(x, w), b) without the
// second matrix.
func Affine(x, w, b *Dense) *Dense {
	if b.Rows != 1 || b.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: Affine w %dx%d b %dx%d", w.Rows, w.Cols, b.Rows, b.Cols))
	}
	out := MatMul(x, w)
	for i := 0; i < out.Rows; i++ {
		row := out.Data[i*out.Cols : (i+1)*out.Cols]
		for j, v := range row {
			row[j] = v + b.Data[j]
		}
	}
	return out
}

// TanhBackward returns grad ⊙ (1−y²) in one pass, where y is a tanh
// output: the same values as MulElem(grad, TanhPrimeFromOutput(y))
// without the derivative temporary.
func TanhBackward(grad, y *Dense) *Dense {
	if !grad.SameShape(y) {
		panic(shapeErr("TanhBackward", grad, y))
	}
	out := newUninit(y.Rows, y.Cols)
	for i, v := range y.Data {
		out.Data[i] = grad.Data[i] * (1 - v*v)
	}
	return out
}

// BlockRepeat repeats each row of a B×c matrix r times, returning (B·r)×c.
func BlockRepeat(a *Dense, r int) *Dense {
	if r <= 0 {
		panic(fmt.Sprintf("tensor: BlockRepeat by %d", r))
	}
	c := a.Cols
	out := newUninit(a.Rows*r, c)
	for bi := 0; bi < a.Rows; bi++ {
		src := a.Data[bi*c : (bi+1)*c]
		for j := 0; j < r; j++ {
			copy(out.Data[(bi*r+j)*c:(bi*r+j+1)*c], src)
		}
	}
	return out
}

// PUpdateNaive performs the framework-style (unfused) covariance update of
// Algorithm 1 lines 10-11:
//
//	P ← (1/λ)·(P − (1/a)·K·Kᵀ)
//	P ← (P + Pᵀ)/2
//
// materializing the K·Kᵀ outer product and the transpose, exactly like the
// torch.matmul implementation the paper replaces.  It returns the two
// temporaries' sizes in elements so callers can account device memory.
// The host holds only one of them at a time: Pᵀ overwrites the K·Kᵀ
// buffer once the subtraction has consumed it.
func PUpdateNaive(p, k *Dense, a, lambda float64) (tmpElems int64) {
	n := p.Rows
	if p.Cols != n || k.Rows != n || k.Cols != 1 {
		panic(fmt.Sprintf("tensor: PUpdateNaive P %dx%d k %dx%d", p.Rows, p.Cols, k.Rows, k.Cols))
	}
	tmp := Outer(k, k) // K·Kᵀ, the N×N temporary the paper measures
	invA := 1 / a
	invL := 1 / lambda
	for i, v := range p.Data {
		p.Data[i] = invL * (v - invA*tmp.Data[i])
	}
	transposeInto(tmp, p) // the second temporary, Pᵀ, for the symmetrization
	for i, v := range p.Data {
		p.Data[i] = 0.5 * (v + tmp.Data[i])
	}
	return int64(2 * n * n)
}

// PUpdateFusedSlab is the handwritten single-pass kernel of Opt3.  It
// refreshes rows [rowLo,rowLo+slab.Rows) of one n×n covariance in place,
// where slab holds those rows and k is the full gain (length n =
// slab.Cols): P ← (1/λ)(P − (1/a)KKᵀ), symmetrized — the update of
// PUpdateNaive in one pass over P that allocates nothing.  The full P is
// its one-slab case.  Each row reads and writes only its own n contiguous
// elements, so row ranges shard across the worker pool with bitwise
// identical results at every worker count, and a rank owning a row slab
// reproduces those rows of the full update exactly.
//
// The symmetrization averages P[i][j] with its mirror P[j][i]; P is
// bitwise symmetric (it starts as the identity, every drain writes equal
// mirror values, and restore rejects a checkpoint that is not), so the
// row's own element stands in for the mirror.  Element (i,j) puts the
// smaller index's k first in the product, which makes the value written
// for (i,j) and for (j,i) the same bits.
func PUpdateFusedSlab(slab *Dense, rowLo int, k []float64, a, lambda float64) {
	n := slab.Cols
	if len(k) != n || rowLo < 0 || rowLo+slab.Rows > n {
		panic(fmt.Sprintf("tensor: PUpdateFusedSlab slab %dx%d at row %d k %d", slab.Rows, n, rowLo, len(k)))
	}
	invA := 1 / a
	invL := 1 / lambda
	// The products invA·k[j] and invA·k[i] are hoisted out of the row
	// walk; each element still computes (invA·k[j])·k[i] for j < i and
	// (invA·k[i])·k[j] for j ≥ i, as written per element.
	v := newUninit(n, 1)
	for j, kj := range k {
		v.Data[j] = invA * kj
	}
	flops := 3 * int64(slab.Rows) * int64(n)
	parallelRows(slab.Rows, flops, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			i := rowLo + r
			ki := k[i]
			c := v.Data[i]
			row := slab.Data[r*n:][:n]
			lower, vl := row[:i], v.Data[:i]
			for j, x := range lower {
				lower[j] = invL * (0.5*(x+x) - vl[j]*ki)
			}
			row[i] = invL * (row[i] - c*ki)
			upper, ku := row[i+1:], k[i+1:n]
			for j, x := range upper {
				upper[j] = invL * (0.5*(x+x) - c*ku[j])
			}
		}
	})
	Recycle(v)
}

// PUpdateNaiveSlab is the row-slab form of PUpdateNaive, the
// framework-style update: the unfused outer-product step followed by the
// symmetrization pass, over rows [rowLo,rowLo+slab.Rows) of one n×n
// covariance, in place and without the n×n temporaries.  It keeps
// PUpdateNaive's expression shape, so any fused-multiply-add contraction
// the compiler applies applies identically.  The outer product is
// k[row]·k[col] (row factor first, as Outer computes it), and the
// symmetrization averages each element with its pre-averaged mirror,
// which is bit-equal by symmetry and commutativity — hence 0.5·(u+u).
func PUpdateNaiveSlab(slab *Dense, rowLo int, k []float64, a, lambda float64) {
	n := slab.Cols
	if len(k) != n || rowLo < 0 || rowLo+slab.Rows > n {
		panic(fmt.Sprintf("tensor: PUpdateNaiveSlab slab %dx%d at row %d k %d", slab.Rows, n, rowLo, len(k)))
	}
	invA := 1 / a
	invL := 1 / lambda
	parallelRows(slab.Rows, 4*int64(slab.Rows)*int64(n), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			ki := k[rowLo+r]
			row := slab.Data[r*n:][:n]
			for j, x := range row {
				t := ki * k[j]
				u := invL * (x - invA*t)
				row[j] = 0.5 * (u + u)
			}
		}
	})
}

// SymmetrizeInPlace replaces p with (p + pᵀ)/2 without temporaries.
func SymmetrizeInPlace(p *Dense) {
	n := p.Rows
	if p.Cols != n {
		panic(fmt.Sprintf("tensor: SymmetrizeInPlace needs square, got %dx%d", p.Rows, p.Cols))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (p.Data[i*n+j] + p.Data[j*n+i])
			p.Data[i*n+j] = v
			p.Data[j*n+i] = v
		}
	}
}

// IsSymmetric reports whether p equals pᵀ within tol.
func IsSymmetric(p *Dense, tol float64) bool {
	if p.Rows != p.Cols {
		return false
	}
	n := p.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(p.Data[i*n+j]-p.Data[j*n+i]) > tol {
				return false
			}
		}
	}
	return true
}

// CholeskyPD reports whether the symmetric matrix p is positive definite
// by attempting an in-place-free Cholesky factorization p = L·Lᵀ; it
// succeeds iff every pivot stays strictly positive.  The EKF property
// tests use it: the covariance update P ← (1/λ)(P − (1/a)KKᵀ) must keep
// every P block positive definite, since a is chosen so the subtracted
// rank-1 term never overshoots.
func CholeskyPD(p *Dense) bool {
	n := p.Rows
	if p.Cols != n || n == 0 {
		return false
	}
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := p.Data[i*n+j]
			for k := 0; k < j; k++ {
				sum -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return false
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	return true
}

// OuterViaGEMM computes K·Kᵀ the way a framework GEMM does (the paper's
// Supplementary I): K is padded to a tile-width matrix of kTile columns
// and multiplied as a general matrix product, executing kTile× the
// multiply-adds of the rank-1 outer product.  It exists as the measured
// counterpart of the handwritten kernel in the optimizer ablations.
func OuterViaGEMM(k *Dense, kTile int) *Dense {
	if k.Cols != 1 {
		panic(fmt.Sprintf("tensor: OuterViaGEMM wants a column vector, got %dx%d", k.Rows, k.Cols))
	}
	if kTile < 1 {
		kTile = 1
	}
	padded := New(k.Rows, kTile)
	for i := 0; i < k.Rows; i++ {
		padded.Data[i*kTile] = k.Data[i]
	}
	return MatMulTB(padded, padded)
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Dense {
	out := New(n, n)
	for i := 0; i < n; i++ {
		out.Data[i*n+i] = 1
	}
	return out
}
