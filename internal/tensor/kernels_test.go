package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// triangleWalk is the reference for PUpdateFusedSlab: the earlier fused
// kernel, which walked the upper triangle of P once, averaged each
// element with its mirror and wrote the result to both.  Its values did
// not depend on how rows were striped across workers, so it runs
// serially here.
func triangleWalk(p, k *Dense, a, lambda float64) {
	n := p.Rows
	invA := 1 / a
	invL := 1 / lambda
	for i := 0; i < n; i++ {
		ki := k.Data[i]
		rowI := p.Data[i*n:]
		p.Data[i*n+i] = invL * (p.Data[i*n+i] - invA*ki*ki)
		for j := i + 1; j < n; j++ {
			v := invL * (0.5*(rowI[j]+p.Data[j*n+i]) - invA*ki*k.Data[j])
			rowI[j] = v
			p.Data[j*n+i] = v
		}
	}
}

// drainSlabs applies PUpdateFusedSlab to a copy of p0 cut at the given row
// boundaries, each slab updated on its own, and returns the reassembled P.
func drainSlabs(p0, k *Dense, a, lambda float64, cuts []int) *Dense {
	n := p0.Cols
	got := New(n, n)
	for c := 0; c+1 < len(cuts); c++ {
		lo, hi := cuts[c], cuts[c+1]
		if lo >= hi {
			continue
		}
		slab := FromSlice(hi-lo, n, append([]float64(nil), p0.Data[lo*n:hi*n]...))
		PUpdateFusedSlab(slab, lo, k.Data, a, lambda)
		copy(got.Data[lo*n:hi*n], slab.Data)
	}
	return got
}

// TestPUpdateFusedSlabMatchesTriangleWalk pins the row walk to the
// triangle walk bitwise on symmetric P — over the full P and over slab
// row ranges, at several worker counts, up to the tiny-Cu block edge.
func TestPUpdateFusedSlabMatchesTriangleWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, n := range []int{1, 2, 3, 5, 8, 64, 129, 257, 1249} {
		p0 := randDense(n, n, rng)
		SymmetrizeInPlace(p0)
		k := randDense(n, 1, rng)
		a := 0.5 + rng.Float64()
		lambda := 0.9 + 0.1*rng.Float64()
		want := p0.Clone()
		triangleWalk(want, k, a, lambda)
		for _, w := range []int{1, 2, 3, 6} {
			withWorkers(t, w, func() {
				got := p0.Clone()
				PUpdateFusedSlab(got, 0, k.Data, a, lambda)
				bitwiseEqual(t, fmt.Sprintf("PUpdateFusedSlab n=%d workers=%d", n, w), got, want)
				for _, cuts := range [][]int{{0, 1, n}, {0, n / 2, n}, {0, n / 3, 2 * n / 3, n}} {
					bitwiseEqual(t, fmt.Sprintf("PUpdateFusedSlab n=%d workers=%d cuts=%v", n, w, cuts),
						drainSlabs(p0, k, a, lambda, cuts), want)
				}
			})
		}
	}
}

// TestMatVecIntoSlabMatchesFull checks that a row slab's mat-vec is the
// corresponding fragment of the full product, bitwise.
func TestMatVecIntoSlabMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{1, 5, 64, 129} {
		p := randDense(n, n, rng)
		SymmetrizeInPlace(p)
		x := randDense(n, 1, rng)
		want := New(n, 1)
		MatVecInto(want.Data, p, x.Data)
		lo, hi := n/3, n
		got := make([]float64, hi-lo)
		MatVecInto(got, FromSlice(hi-lo, n, p.Data[lo*n:hi*n]), x.Data)
		bitwiseEqual(t, fmt.Sprintf("MatVecInto n=%d", n), FromSlice(hi-lo, 1, got), FromSlice(hi-lo, 1, want.Data[lo:hi]))
	}
}

// TestPUpdateNaiveSlabMatchesNaive pins the framework-style row kernel to
// PUpdateNaive, which materializes K·Kᵀ and Pᵀ, bitwise on symmetric P —
// over the full P and over slab row ranges, at several worker counts.
func TestPUpdateNaiveSlabMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, n := range []int{1, 2, 5, 64, 257} {
		p0 := randDense(n, n, rng)
		SymmetrizeInPlace(p0)
		k := randDense(n, 1, rng)
		a := 0.5 + rng.Float64()
		lambda := 0.9 + 0.1*rng.Float64()
		want := p0.Clone()
		PUpdateNaive(want, k, a, lambda)
		for _, w := range []int{1, 3} {
			withWorkers(t, w, func() {
				for _, cuts := range [][]int{{0, n}, {0, n / 2, n}, {0, n / 3, 2 * n / 3, n}} {
					got := p0.Clone()
					for c := 0; c+1 < len(cuts); c++ {
						lo, hi := cuts[c], cuts[c+1]
						if lo < hi {
							PUpdateNaiveSlab(FromSlice(hi-lo, n, got.Data[lo*n:hi*n]), lo, k.Data, a, lambda)
						}
					}
					bitwiseEqual(t, fmt.Sprintf("PUpdateNaiveSlab n=%d workers=%d cuts=%v", n, w, cuts), got, want)
				}
			})
		}
	}
}
