package optimize

import (
	"fmt"

	"fekf/internal/tensor"
)

// This file holds the row-slab form of the framework-style covariance
// update, for internal/pshard.  The fused drain and the P·g mat-vec need
// no slab forms: tensor.PUpdateFusedSlab and tensor.MatVecInto are row
// kernels with the full P as their one-slab case.
//
// The bitwise contract rests on one fact: P is exactly bitwise symmetric.
// It starts as the identity, every drain writes bit-equal mirror elements
// (k[i]*k[j] == k[j]*k[i] in IEEE 754), and restore rejects a checkpoint
// whose P is not (RestoreKalmanState, pshard.Checkpoint.Validate).  So
// where a full-P kernel would read the mirror P[j][i], a row reads its
// own P[i][j] — the same bits.  SlabDrainNaive keeps PUpdateNaive's
// source-level expression shape, so any fused-multiply-add contraction
// the compiler applies applies identically.

// SlabDrainNaive is the slab form of tensor.PUpdateNaive: the unfused
// outer-product update followed by the symmetrization pass.  The outer
// product stores k[row]*k[col] (row factor first, as tensor.Outer does)
// and the symmetrization averages the element with its pre-averaged
// mirror, which is bit-equal by symmetry and commutativity — hence
// 0.5*(u+u) here.
func SlabDrainNaive(rows *tensor.Dense, rowLo int, k []float64, a, lambda float64) {
	n := rows.Cols
	if len(k) != n {
		panic(fmt.Sprintf("optimize: SlabDrainNaive slab %dx%d k %d", rows.Rows, n, len(k)))
	}
	invA := 1 / a
	invL := 1 / lambda
	tensor.ParallelFor(rows.Rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			ki := k[rowLo+r]
			row := rows.Data[r*n : (r+1)*n]
			for j := 0; j < n; j++ {
				t := ki * k[j]
				u := invL * (row[j] - invA*t)
				row[j] = 0.5 * (u + u)
			}
		}
	})
}
