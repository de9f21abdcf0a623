package tensor

import (
	"math/rand"
	"testing"
)

// BenchmarkKernels times the dense kernels of one training step at the
// step's own shapes (tiny Cu): the Kalman gain's P·g and the covariance
// drain on the 1249² P block, the fitting-net GEMMs of one 2560-row rank
// batch, and the descriptor's batched products over 128 atoms of 20
// neighbour slots.  Each runs on one goroutine, so ns/op is the kernel's
// own cost and not the worker pool's.
//
//	go test ./internal/tensor -run '^$' -bench Kernels
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gemm := func(name string, f func() *Dense) {
		b.Run(name, func(b *testing.B) {
			prev := SetWorkers(1)
			defer SetWorkers(prev)
			for i := 0; i < b.N; i++ {
				Recycle(f())
			}
		})
	}
	rows8 := randDense(2560, 8, rng)
	rows8b := randDense(2560, 8, rng)
	rows4 := randDense(2560, 4, rng)
	w8 := randDense(8, 8, rng)
	blocks48 := randDense(128*4, 8, rng)
	gemm("MatMulTA/2560x8", func() *Dense { return MatMulTA(rows8, rows8b) })
	gemm("MatMulTB/2560x8", func() *Dense { return MatMulTB(rows8, w8) })
	gemm("MatMul/2560x8", func() *Dense { return MatMul(rows8, w8) })
	gemm("BatchedMatMul/128x20x4x8", func() *Dense { return BatchedMatMul(rows4, blocks48, 128) })
	gemm("BatchedMatMulTA/128x20x4x8", func() *Dense { return BatchedMatMulTA(rows4, rows8, 128) })
	gemm("BatchedMatMulTB/128x20x8x4", func() *Dense { return BatchedMatMulTB(rows8, blocks48, 128) })

	const n = 1249
	p := randDense(n, n, rng)
	SymmetrizeInPlace(p)
	x := randDense(n, 1, rng)
	b.Run("MatVecInto/1249", func(b *testing.B) {
		prev := SetWorkers(1)
		defer SetWorkers(prev)
		y := make([]float64, n)
		for i := 0; i < b.N; i++ {
			MatVecInto(y, p, x.Data)
		}
	})
	b.Run("PUpdateFusedSlab/1249", func(b *testing.B) {
		prev := SetWorkers(1)
		defer SetWorkers(prev)
		// λ = 1 and a large a keep P's values normal over any b.N.
		for i := 0; i < b.N; i++ {
			PUpdateFusedSlab(p, 0, x.Data, 1e6, 1)
		}
	})
}
