package cluster

import (
	"errors"
	"fmt"
	"sync"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/optimize"
)

// DataParallelFEKF trains FEKF over r simulated GPU ranks: the minibatch
// is split into r chunks (Figure 5(a)), each rank computes its partial
// sign-reduced gradient and error sums on its own device, the partials are
// ring-allreduced, and every rank then performs the identical Kalman
// update against its local P replica — which therefore stays consistent
// with zero P communication (Section 3.3).
type DataParallelFEKF struct {
	// FEKF is the filter configuration every rank applies — KCfg,
	// Factor, ForceGroups, the trust divisors and Pipeline (which also
	// overlaps each group's ring allreduce with the previous drain).  Its
	// own single-device Kalman state stays unused: each rank holds one.
	FEKF *optimize.FEKF

	ring     *Ring
	replicas []*deepmd.Model
	states   []*optimize.KalmanState
	devs     []*device.Device

	// envFail, when non-nil, injects a per-rank environment-build failure
	// after BuildBatchEnv succeeds; the consistency tests use it to prove
	// that a failing rank cannot make the replicas diverge.
	envFail func(rank int) error
}

// NewDataParallelFEKF builds a trainer with `workers` ranks replicated
// from the given model, communicating over the in-process channel
// transport.
func NewDataParallelFEKF(workers int, m *deepmd.Model) *DataParallelFEKF {
	return NewDataParallelFEKFOver(NewRing(workers, RoCE25()), m)
}

// NewDataParallelFEKFOver builds a trainer whose ranks communicate over an
// existing ring — e.g. one constructed over the TCP-loopback transport or
// a fault-injecting wrapper.  The trainer has ring.Size() ranks.
func NewDataParallelFEKFOver(ring *Ring, m *deepmd.Model) *DataParallelFEKF {
	workers := ring.Size()
	dp := &DataParallelFEKF{FEKF: optimize.NewFEKF(), ring: ring}
	for w := 0; w < workers; w++ {
		dev := device.New(fmt.Sprintf("gpu%d", w), device.A100())
		dp.devs = append(dp.devs, dev)
		dp.replicas = append(dp.replicas, m.CloneFor(dev))
	}
	return dp
}

// SetEnvFail installs (or clears, with nil) the per-rank environment-build
// failure hook; the cross-transport consistency tests use it to prove a
// failing rank cannot make the replicas diverge on any transport.
func (dp *DataParallelFEKF) SetEnvFail(f func(rank int) error) { dp.envFail = f }

// Name implements the optimizer naming convention.
func (dp *DataParallelFEKF) Name() string {
	return fmt.Sprintf("FEKF[%d GPUs]", dp.ring.Size())
}

// Model returns rank 0's replica (for evaluation; all replicas agree).
func (dp *DataParallelFEKF) Model() *deepmd.Model { return dp.replicas[0] }

// Ring exposes the communicator for wire-byte accounting.
func (dp *DataParallelFEKF) Ring() *Ring { return dp.ring }

// ReplicaDrift returns the maximum absolute weight difference between rank
// 0 and any other rank — zero up to floating-point reduction order if the
// no-P-communication invariant holds.
func (dp *DataParallelFEKF) ReplicaDrift() float64 {
	ref := dp.replicas[0].Params.FlattenValues()
	worst := 0.0
	for _, r := range dp.replicas[1:] {
		v := r.Params.FlattenValues()
		for i := range v {
			d := v[i] - ref[i]
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// chunkOf splits idx into the rank's contiguous share.
func chunkOf(idx []int, rank, size int) []int {
	lo := rank * len(idx) / size
	hi := (rank + 1) * len(idx) / size
	return idx[lo:hi]
}

// Step performs one distributed FEKF iteration over the minibatch idx,
// chunking it contiguously across the ranks and running each rank's
// share of the step schedule (optimize.RankStep) concurrently.
//
// Failure semantics: a rank whose environment build fails still runs the
// full collective schedule, contributing zero gradient/error partials, and
// then applies the same reduced update every surviving rank applies — the
// reduced buffers are bit-identical on every rank after the allgather, so
// the replicas (weights and P) cannot diverge across a partial failure.
// Each Kalman update is gated on the reduced sample count, so a step in
// which no rank contributed (total failure) aborts atomically: every rank
// skips every state mutation.  The first error is still returned so the
// caller can see the failure; training may safely continue afterwards.
func (dp *DataParallelFEKF) Step(ds *dataset.Dataset, idx []int) (optimize.StepInfo, error) {
	r := dp.ring.Size()
	if dp.states == nil {
		for w := 0; w < r; w++ {
			dp.states = append(dp.states,
				optimize.NewKalmanState(dp.FEKF.KCfg, dp.replicas[w].Params.LayerSizes(), dp.devs[w]))
		}
	}
	p := dp.FEKF.StepParams(len(idx), ds.Snapshots[idx[0]].NumAtoms())

	var wg sync.WaitGroup
	errs := make([]error, r)
	infos := make([]optimize.StepInfo, r)
	for w := 0; w < r; w++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var inject func() error
			if dp.envFail != nil {
				inject = func() error { return dp.envFail(rank) }
			}
			infos[rank], errs[rank] = optimize.RankStep(dp.ring, rank, dp.replicas[rank], dp.states[rank], p,
				ds, chunkOf(idx, rank, r), inject)
		}(w)
	}
	wg.Wait()
	return infos[0], errors.Join(errs...)
}

// ModeledIterationNs returns the modeled wall time of everything executed
// so far: the busiest rank's device time plus the communication time.
// With one host core the measured wall-clock of the simulation is not the
// experiment's metric; this is (see DESIGN.md).
func (dp *DataParallelFEKF) ModeledIterationNs() float64 {
	worst := 0.0
	for _, d := range dp.devs {
		if ns := d.Counters().ModeledNs; ns > worst {
			worst = ns
		}
	}
	return worst + dp.ring.ModeledNs()
}
