package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The ref* functions are the dense kernels as plain loops, one output or
// one output row at a time, kept as the references the tiled kernels must
// match bit for bit (the pattern of triangleWalk).  They run serially.

// refGemm computes out += a·b, cache-blocked over the rows and the shared
// dimension.
func refGemm(out, a, b *Dense) {
	const blockSize = 64
	n := b.Cols
	for i0 := 0; i0 < a.Rows; i0 += blockSize {
		i1 := min(i0+blockSize, a.Rows)
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

// refMatMulTA returns aᵀ·b.
func refMatMulTA(a, b *Dense) *Dense {
	out := New(a.Cols, b.Cols)
	n := b.Cols
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*n : (k+1)*n]
		for i := 0; i < a.Cols; i++ {
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
	return out
}

// refMatMulTB returns a·bᵀ.
func refMatMulTB(a, b *Dense) *Dense {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
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
	return out
}

// refMatVec returns a·x as a slice, one serial dot loop per row.
func refMatVec(a *Dense, x []float64) []float64 {
	n := a.Cols
	dst := make([]float64, a.Rows)
	for i := range dst {
		row := a.Data[i*n : (i+1)*n]
		s := 0.0
		for k, v := range row {
			s += v * x[k]
		}
		dst[i] = s
	}
	return dst
}

// refBatchedMatMul computes per-block a_i·b_i.
func refBatchedMatMul(a, b *Dense, batch int) *Dense {
	m, k, n := a.Rows/batch, a.Cols, b.Cols
	out := New(a.Rows, n)
	for bi := 0; bi < batch; bi++ {
		ab := a.Data[bi*m*k : (bi+1)*m*k]
		bb := b.Data[bi*k*n : (bi+1)*k*n]
		ob := out.Data[bi*m*n : (bi+1)*m*n]
		for i := 0; i < m; i++ {
			arow := ab[i*k : (i+1)*k]
			orow := ob[i*n : (i+1)*n]
			for kk, av := range arow {
				if av == 0 {
					continue
				}
				brow := bb[kk*n : (kk+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
	return out
}

// refBatchedMatMulTA computes per-block a_iᵀ·b_i.
func refBatchedMatMulTA(a, b *Dense, batch int) *Dense {
	k, m, n := a.Rows/batch, a.Cols, b.Cols
	out := New(batch*m, n)
	for bi := 0; bi < batch; bi++ {
		ab := a.Data[bi*k*m : (bi+1)*k*m]
		bb := b.Data[bi*k*n : (bi+1)*k*n]
		ob := out.Data[bi*m*n : (bi+1)*m*n]
		for kk := 0; kk < k; kk++ {
			arow := ab[kk*m : (kk+1)*m]
			brow := bb[kk*n : (kk+1)*n]
			for i, av := range arow {
				if av == 0 {
					continue
				}
				orow := ob[i*n : (i+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
	return out
}

// refBatchedMatMulTB computes per-block a_i·b_iᵀ.
func refBatchedMatMulTB(a, b *Dense, batch int) *Dense {
	m, n, k := a.Rows/batch, b.Rows/batch, a.Cols
	out := New(batch*m, n)
	for bi := 0; bi < batch; bi++ {
		ab := a.Data[bi*m*k : (bi+1)*m*k]
		bb := b.Data[bi*n*k : (bi+1)*n*k]
		ob := out.Data[bi*m*n : (bi+1)*m*n]
		for i := 0; i < m; i++ {
			arow := ab[i*k : (i+1)*k]
			orow := ob[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				brow := bb[j*k : (j+1)*k]
				s := 0.0
				for kk, av := range arow {
					s += av * brow[kk]
				}
				orow[j] = s
			}
		}
	}
	return out
}

// refPUpdateFusedSlab is the row walk with invA·k recomputed per element.
func refPUpdateFusedSlab(slab *Dense, rowLo int, k []float64, a, lambda float64) {
	n := slab.Cols
	invA := 1 / a
	invL := 1 / lambda
	for r := 0; r < slab.Rows; r++ {
		i := rowLo + r
		ki := k[i]
		row := slab.Data[r*n : (r+1)*n]
		for j := 0; j < i; j++ {
			row[j] = invL * (0.5*(row[j]+row[j]) - invA*k[j]*ki)
		}
		row[i] = invL * (row[i] - invA*ki*ki)
		for j := i + 1; j < n; j++ {
			row[j] = invL * (0.5*(row[j]+row[j]) - invA*ki*k[j])
		}
	}
}

// awkwardDense returns an r×c matrix of normal values with runs of exact
// zeros and negative zeros, and, if nonFinite, scattered ±Inf and NaN.
// The zeros pin the GEMMs' zero skip against non-finite partners: a
// kernel that added 0·Inf instead of skipping would turn an output NaN.
func awkwardDense(r, c int, nonFinite bool, rng *rand.Rand) *Dense {
	out := randDense(r, c, rng)
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for i := range out.Data {
		switch u := rng.Float64(); {
		case u < 0.25:
			// a run of zeros, as in a padded neighbour slot
			for j := i; j < len(out.Data) && j < i+1+rng.Intn(4); j++ {
				out.Data[j] = 0
			}
		case u < 0.35:
			out.Data[i] = math.Copysign(0, -1)
		case nonFinite && u < 0.40:
			out.Data[i] = special[rng.Intn(len(special))]
		}
	}
	return out
}

// bitsMatch fails t unless got and want hold the same bits, where any NaN
// matches any NaN.  A NaN's payload is not part of the contract: when
// both operands of an add are NaN, x86 returns the first, and Go leaves
// the operand order of a commutative op to the compiler.
func bitsMatch(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", name, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: elem %d = %v (%x), reference %v (%x)", name, i,
				g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// tileDims covers every remainder of the 2×4 and 4-wide tiles.
var tileDims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 65}

// checkDenseKernels compares every tiled kernel with its reference on one
// shape: a is m×k (or k×m for the transposed-A products) with zeros and
// -0; b carries ±Inf and NaN.
func checkDenseKernels(t *testing.T, name string, m, k, n int, rng *rand.Rand) {
	t.Helper()
	a := awkwardDense(m, k, false, rng)
	b := awkwardDense(k, n, true, rng)
	bias := awkwardDense(1, n, false, rng)

	want := New(m, n)
	for i := 0; i < m; i++ {
		copy(want.Data[i*n:(i+1)*n], bias.Data)
	}
	got := want.Clone()
	refGemm(want, a, b)
	gemmInto(got, a, b)
	bitsMatch(t, name+" gemmInto onto bias", got.Data, want.Data)
	want = New(m, n)
	refGemm(want, a, b)
	bitsMatch(t, name+" MatMul", MatMul(a, b).Data, want.Data)

	at := awkwardDense(k, m, false, rng)
	bitsMatch(t, name+" MatMulTA", MatMulTA(at, b).Data, refMatMulTA(at, b).Data)

	bt := awkwardDense(n, k, true, rng)
	bitsMatch(t, name+" MatMulTB", MatMulTB(a, bt).Data, refMatMulTB(a, bt).Data)

	x := awkwardDense(k, 1, true, rng).Data
	y := make([]float64, m)
	MatVecInto(y, a, x)
	bitsMatch(t, name+" MatVecInto", y, refMatVec(a, x))

	const batch = 3
	ab := awkwardDense(batch*m, k, false, rng)
	bb := awkwardDense(batch*k, n, true, rng)
	bitsMatch(t, name+" BatchedMatMul", BatchedMatMul(ab, bb, batch).Data, refBatchedMatMul(ab, bb, batch).Data)
	abt := awkwardDense(batch*k, m, false, rng)
	bitsMatch(t, name+" BatchedMatMulTA", BatchedMatMulTA(abt, bb, batch).Data, refBatchedMatMulTA(abt, bb, batch).Data)
	bbt := awkwardDense(batch*n, k, true, rng)
	bitsMatch(t, name+" BatchedMatMulTB", BatchedMatMulTB(ab, bbt, batch).Data, refBatchedMatMulTB(ab, bbt, batch).Data)
}

// TestDenseKernelsMatchReference pins every tiled kernel to its plain
// loop bit for bit over every tile remainder, at 1 and 5 workers.
func TestDenseKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, w := range []int{1, 5} {
		withWorkers(t, w, func() {
			for _, m := range tileDims {
				for _, k := range tileDims {
					for _, n := range tileDims {
						checkDenseKernels(t, fmt.Sprintf("workers=%d %dx%dx%d", w, m, k, n), m, k, n, rng)
					}
				}
			}
			// big enough to clear the parallel floor
			checkDenseKernels(t, fmt.Sprintf("workers=%d 257x33x18", w), 257, 33, 18, rng)
		})
	}
}

// checkDrainSlab compares PUpdateFusedSlab with its reference on rows
// [lo,hi) of a symmetric n×n P, with a gain carrying zeros and -0.
func checkDrainSlab(t *testing.T, name string, n, lo, hi int, rng *rand.Rand) {
	t.Helper()
	p := randDense(n, n, rng)
	SymmetrizeInPlace(p)
	k := awkwardDense(n, 1, false, rng).Data
	a, lambda := 0.5+rng.Float64(), 0.9+0.1*rng.Float64()
	got := FromSlice(hi-lo, n, append([]float64(nil), p.Data[lo*n:hi*n]...))
	want := FromSlice(hi-lo, n, append([]float64(nil), p.Data[lo*n:hi*n]...))
	PUpdateFusedSlab(got, lo, k, a, lambda)
	refPUpdateFusedSlab(want, lo, k, a, lambda)
	bitsMatch(t, fmt.Sprintf("%s PUpdateFusedSlab n=%d rows [%d,%d)", name, n, lo, hi), got.Data, want.Data)
}

// TestPUpdateFusedSlabMatchesReference pins the hoisted drain to the
// per-element row walk on whole P and on row slabs, at 1 and 5 workers.
func TestPUpdateFusedSlabMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, w := range []int{1, 5} {
		withWorkers(t, w, func() {
			for _, n := range append(tileDims, 300) {
				for _, span := range [][2]int{{0, n}, {n / 3, n}, {n / 4, n/4 + 1}, {n / 2, n - n/4}} {
					if span[0] < span[1] {
						checkDrainSlab(t, fmt.Sprintf("workers=%d", w), n, span[0], span[1], rng)
					}
				}
			}
		})
	}
}
