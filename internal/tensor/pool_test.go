package tensor

import (
	"math/rand"
	"testing"
)

// withWorkers runs fn with the pool set to w workers, restoring the
// previous setting afterwards.
func withWorkers(t *testing.T, w int, fn func()) {
	t.Helper()
	prev := SetWorkers(w)
	defer SetWorkers(prev)
	fn()
}

// workerCounts exercises serial, fewer-workers-than-rows, more-workers-
// than-rows, and the benchmark sizes.
var workerCounts = []int{1, 2, 3, 4, 8}

// oddShapes stresses the sharding boundaries: single rows/cols, fewer
// rows than workers, and sizes that are not multiples of the GEMM tile.
var oddShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 5, 3},
	{3, 1, 7},
	{2, 3, 2},
	{5, 7, 3},
	{7, 64, 7},
	{63, 65, 31},
	{65, 63, 66},
	{128, 64, 96},
}

func randDense(r, c int, rng *rand.Rand) *Dense {
	out := New(r, c)
	for i := range out.Data {
		out.Data[i] = rng.NormFloat64()
	}
	return out
}

// bitwiseEqual asserts exact (not tolerance-based) equality: the pool's
// determinism contract is that parallel kernels reproduce the serial
// result bit for bit.
func bitwiseEqual(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if v != want.Data[i] {
			t.Fatalf("%s: elem %d = %v want %v (not bitwise identical)", name, i, v, want.Data[i])
		}
	}
}

func TestParallelGEMMBitwiseMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sh := range oddShapes {
		a := randDense(sh.m, sh.k, rng)
		b := randDense(sh.k, sh.n, rng)
		bt := Transpose(b)
		at := Transpose(a)
		var serial struct{ mm, ta, tb *Dense }
		withWorkers(t, 1, func() {
			serial.mm = MatMul(a, b)
			serial.ta = MatMulTA(at, b)
			serial.tb = MatMulTB(a, bt)
		})
		for _, w := range workerCounts {
			withWorkers(t, w, func() {
				bitwiseEqual(t, "MatMul", MatMul(a, b), serial.mm)
				bitwiseEqual(t, "MatMulTA", MatMulTA(at, b), serial.ta)
				bitwiseEqual(t, "MatMulTB", MatMulTB(a, bt), serial.tb)
			})
		}
	}
}

func TestParallelMatVecBitwiseMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 2, 3, 5, 63, 129, 300} {
		x := randDense(n, 1, rng)
		a := randDense(n, n, rng)
		var wantMV *Dense
		withWorkers(t, 1, func() {
			wantMV = New(n, 1)
			MatVecInto(wantMV.Data, a, x.Data)
		})
		for _, w := range workerCounts {
			withWorkers(t, w, func() {
				mv := New(n, 1)
				MatVecInto(mv.Data, a, x.Data)
				bitwiseEqual(t, "MatVecInto", mv, wantMV)
			})
		}
	}
}

func TestParallelPUpdateFusedBitwiseMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{1, 2, 3, 5, 8, 64, 129, 257} {
		p0 := randDense(n, n, rng)
		SymmetrizeInPlace(p0)
		k := randDense(n, 1, rng)
		var want, wantNaive *Dense
		withWorkers(t, 1, func() {
			want = p0.Clone()
			PUpdateFusedSlab(want, 0, k.Data, 1.3, 0.98)
			wantNaive = p0.Clone()
			PUpdateNaiveSlab(wantNaive, 0, k.Data, 1.3, 0.98)
		})
		for _, w := range workerCounts {
			withWorkers(t, w, func() {
				got := p0.Clone()
				PUpdateFusedSlab(got, 0, k.Data, 1.3, 0.98)
				bitwiseEqual(t, "PUpdateFusedSlab", got, want)
				got = p0.Clone()
				PUpdateNaiveSlab(got, 0, k.Data, 1.3, 0.98)
				bitwiseEqual(t, "PUpdateNaiveSlab", got, wantNaive)
			})
		}
	}
}

// TestParallelPUpdateFusedMatchesNaive guards the numerics across the
// parallel path: the row-walk fused kernel must still agree with the
// framework-style reference update.
func TestParallelPUpdateFusedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const n = 65
	p0 := randDense(n, n, rng)
	SymmetrizeInPlace(p0)
	k := randDense(n, 1, rng)
	ref := p0.Clone()
	PUpdateNaive(ref, k, 1.1, 0.95)
	withWorkers(t, 4, func() {
		got := p0.Clone()
		PUpdateFusedSlab(got, 0, k.Data, 1.1, 0.95)
		if !Equal(got, ref, 1e-12) {
			t.Fatal("parallel fused P update diverges from naive reference")
		}
	})
}

// TestNestedParallelFor exercises the saturation path: ParallelFor called
// from inside pool workers must fall back to inline execution instead of
// deadlocking, and still cover every index exactly once.
func TestNestedParallelFor(t *testing.T) {
	withWorkers(t, 4, func() {
		const outer, inner = 8, 100
		sums := make([][]int, outer)
		ParallelFor(outer, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				marks := make([]int, inner)
				ParallelFor(inner, func(l, h int) {
					for j := l; j < h; j++ {
						marks[j]++
					}
				})
				sums[i] = marks
			}
		})
		for i, marks := range sums {
			for j, c := range marks {
				if c != 1 {
					t.Fatalf("outer %d inner %d visited %d times", i, j, c)
				}
			}
		}
	})
}

func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d want 3", got)
	}
	if got := SetWorkers(0); got != 3 {
		t.Fatalf("SetWorkers returned %d want previous 3", got)
	}
	if Workers() < 1 {
		t.Fatal("SetWorkers(0) must reset to a positive default")
	}
}

func TestParallelForEmptyAndSingle(t *testing.T) {
	withWorkers(t, 4, func() {
		ParallelFor(0, func(lo, hi int) { t.Fatal("fn called for n=0") })
		calls := 0
		ParallelFor(1, func(lo, hi int) {
			calls++
			if lo != 0 || hi != 1 {
				t.Fatalf("range [%d,%d) want [0,1)", lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("fn called %d times want 1", calls)
		}
	})
}
