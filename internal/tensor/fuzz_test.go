package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The fuzz targets below pin the worker pool's bitwise determinism
// contract on the three kernels the pipelined Kalman update leans on:
// whatever shapes and values the fuzzer invents, running the kernel on one
// worker and on several must produce identical bits.  The last one holds
// every tiled dense kernel to its plain-loop reference.  They run in `make
// ci` with a short -fuzztime, and any corpus the fuzzer saves becomes a
// permanent regression seed.

// clampDim maps an arbitrary fuzzed int into [1, limit].
func clampDim(d, limit int) int {
	d %= limit
	if d < 0 {
		d += limit
	}
	return d + 1
}

// bitsEqual compares two slices at full precision (NaN-safe, unlike ==).
func bitsEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

func FuzzGEMMParallelMatchesSerial(f *testing.F) {
	f.Add(int64(1), 3, 4, 5)
	f.Add(int64(7), 65, 1, 64)  // spans the cache-block edge
	f.Add(int64(42), 1, 80, 1)  // degenerate vector shapes
	f.Add(int64(9), 17, 33, 29) // odd everything
	f.Fuzz(func(t *testing.T, seed int64, rows, inner, cols int) {
		rows, inner, cols = clampDim(rows, 80), clampDim(inner, 80), clampDim(cols, 80)
		rng := rand.New(rand.NewSource(seed))
		a := RandNormal(rows, inner, 1, rng)
		b := RandNormal(inner, cols, 1, rng)

		prev := SetWorkers(1)
		serial := New(rows, cols)
		gemmInto(serial, a, b)
		SetWorkers(5)
		parallel := New(rows, cols)
		gemmInto(parallel, a, b)
		SetWorkers(prev)

		if i, ok := bitsEqual(serial.Data, parallel.Data); !ok {
			t.Fatalf("gemmInto %dx%dx%d: elem %d = %x (parallel) vs %x (serial)",
				rows, inner, cols, i,
				math.Float64bits(parallel.Data[i]), math.Float64bits(serial.Data[i]))
		}
	})
}

// FuzzPUpdateFusedParallelMatchesSerial checks the fused row walk on the
// full P at 1 and 6 workers against the triangle walk it replaced
// (triangleWalk), and both row kernels on a fuzzed row slab [lo,hi):
// PUpdateFusedSlab against the triangle walk, PUpdateNaiveSlab against
// the framework-style PUpdateNaive.
func FuzzPUpdateFusedParallelMatchesSerial(f *testing.F) {
	f.Add(int64(1), 8, 0.5, 0.98, 2, 5)
	f.Add(int64(3), 96, 2.0, 0.9, 0, 96) // the whole P as one slab
	f.Add(int64(5), 1, 0.001, 0.5, 0, 1) // single-element P
	f.Add(int64(11), 65, 10.0, 0.99, 64, 65)
	f.Fuzz(func(t *testing.T, seed int64, n int, a, lambda float64, lo, hi int) {
		n = clampDim(n, 96)
		// keep the scalars in the regime the filter produces: a > 0 from the
		// gain denominator, λ ∈ (0, 1] from the memory schedule.
		if math.IsNaN(a) || math.IsInf(a, 0) || a <= 0 {
			a = 0.75
		}
		if math.IsNaN(lambda) || lambda <= 0 || lambda > 1 {
			lambda = 0.98
		}
		lo = clampDim(lo, n) - 1 // [0, n)
		hi = lo + clampDim(hi, n-lo)
		rng := rand.New(rand.NewSource(seed))
		p := RandNormal(n, n, 1, rng)
		SymmetrizeInPlace(p)
		k := RandNormal(n, 1, 1, rng)

		pSerial := p.Clone()
		pParallel := p.Clone()
		pRef := p.Clone()
		pNaive := p.Clone()
		prev := SetWorkers(1)
		PUpdateFusedSlab(pSerial, 0, k.Data, a, lambda)
		SetWorkers(6)
		PUpdateFusedSlab(pParallel, 0, k.Data, a, lambda)
		slab := FromSlice(hi-lo, n, append([]float64(nil), p.Data[lo*n:hi*n]...))
		PUpdateFusedSlab(slab, lo, k.Data, a, lambda)
		naiveSlab := FromSlice(hi-lo, n, append([]float64(nil), p.Data[lo*n:hi*n]...))
		PUpdateNaiveSlab(naiveSlab, lo, k.Data, a, lambda)
		SetWorkers(prev)
		triangleWalk(pRef, k, a, lambda)
		PUpdateNaive(pNaive, k, a, lambda)

		if i, ok := bitsEqual(pSerial.Data, pParallel.Data); !ok {
			t.Fatalf("PUpdateFusedSlab n=%d a=%v λ=%v: elem %d diverged", n, a, lambda, i)
		}
		if i, ok := bitsEqual(pSerial.Data, pRef.Data); !ok {
			t.Fatalf("PUpdateFusedSlab n=%d a=%v λ=%v: elem %d differs from the triangle walk", n, a, lambda, i)
		}
		if i, ok := bitsEqual(slab.Data, pRef.Data[lo*n:hi*n]); !ok {
			t.Fatalf("PUpdateFusedSlab n=%d rows [%d,%d): elem %d differs from the triangle walk", n, lo, hi, i)
		}
		if i, ok := bitsEqual(naiveSlab.Data, pNaive.Data[lo*n:hi*n]); !ok {
			t.Fatalf("PUpdateNaiveSlab n=%d rows [%d,%d): elem %d differs from PUpdateNaive", n, lo, hi, i)
		}
		if !IsSymmetric(pParallel, 0) {
			t.Fatalf("PUpdateFusedSlab n=%d: result not bitwise symmetric", n)
		}
	})
}

// FuzzMatVecParallelMatchesSerial checks the P·g mat-vec (MatVecInto) on
// a symmetric P at 1 and 5 workers.
func FuzzMatVecParallelMatchesSerial(f *testing.F) {
	f.Add(int64(1), 8)
	f.Add(int64(2), 96)
	f.Add(int64(13), 1)
	f.Fuzz(func(t *testing.T, seed int64, n int) {
		n = clampDim(n, 96)
		rng := rand.New(rand.NewSource(seed))
		p := RandNormal(n, n, 1, rng)
		SymmetrizeInPlace(p)
		x := RandNormal(n, 1, 1, rng)

		ySerial := make([]float64, n)
		yParallel := make([]float64, n)
		prev := SetWorkers(1)
		MatVecInto(ySerial, p, x.Data)
		SetWorkers(5)
		MatVecInto(yParallel, p, x.Data)
		SetWorkers(prev)

		if i, ok := bitsEqual(ySerial, yParallel); !ok {
			t.Fatalf("MatVecInto n=%d: elem %d diverged", n, i)
		}
	})
}

// FuzzDenseKernelsMatchReference compares every tiled kernel with its
// plain-loop reference (reference_test.go) on fuzzed shapes, with runs of
// zeros and -0 in a and ±Inf and NaN in b, at 1 and 5 workers, plus the
// drain on a fuzzed row slab of an m×m P.
func FuzzDenseKernelsMatchReference(f *testing.F) {
	f.Add(int64(1), 3, 4, 5)
	f.Add(int64(7), 65, 1, 64)
	f.Add(int64(42), 2, 80, 9)
	f.Add(int64(9), 17, 33, 29)
	f.Fuzz(func(t *testing.T, seed int64, m, k, n int) {
		m, k, n = clampDim(m, 80), clampDim(k, 80), clampDim(n, 80)
		lo := clampDim(k, m) - 1
		hi := lo + clampDim(n, m-lo)
		for _, w := range []int{1, 5} {
			withWorkers(t, w, func() {
				rng := rand.New(rand.NewSource(seed))
				name := fmt.Sprintf("workers=%d %dx%dx%d", w, m, k, n)
				checkDenseKernels(t, name, m, k, n, rng)
				checkDrainSlab(t, name, m, lo, hi, rng)
			})
		}
	})
}
