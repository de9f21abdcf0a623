package fleet

import (
	"fmt"

	"fekf/internal/cluster"
	"fekf/internal/deepmd"
	"fekf/internal/optimize"
)

// placement is where the fleet's Kalman covariance P lives: whole on every
// replica (replicatedP, the paper's data-parallel layout) or split by rows
// across the live ranks (shardedP, pshard.go).  New picks one from
// Config.PShard, Resume from the checkpoint; the conductor then calls the
// same hooks in both modes.  Hooks are conductor only (or before Start /
// after Stop) except row, which is safe from any goroutine.
type placement interface {
	// over returns the covariance replica id updates in a step over ring.
	over(id int, ring *cluster.Ring) optimize.Covariance
	// settle fits P to the step's live set before the step runs.
	settle(live []int) error
	// recover rebuilds P over a broken ring's reconciled survivors.
	recover(survivors []int) error
	// diag is the P diagonal replica id gates on and the sentinel samples.
	diag(id int) []float64
	// lambda is the memory factor λ replica id's filter holds.
	lambda(id int) (float64, bool)
	// drift is the P invariant gauge over live: exactly 0 in lockstep.
	drift(live []int) float64
	// resident is replica id's resident covariance bytes.
	resident(id int) int64
	// save adds the covariance to a fleet checkpoint; load installs a
	// checkpoint's covariance over live (failing when ck holds the other
	// placement's), or a fresh P = I when ck is nil.
	save(ck *Checkpoint) error
	load(ck *Checkpoint, live []int) error
	// reassign is the P bytes one more (up) or one fewer (down) live
	// replica would move between ranks.
	reassign(live []int) (up, down int64)
	// row is the /v1/stats pshard row; nil when P is replicated.
	row() *PShardStats
}

// newPlacement builds the placement for a fleet of reps cloned from the
// prototype model m and optimizer opt.
func newPlacement(sharded bool, reps []*replica, m *deepmd.Model, opt *optimize.FEKF) (placement, error) {
	if !sharded {
		return replicatedP{reps}, nil
	}
	if opt.State() != nil {
		return nil, fmt.Errorf("fleet: pshard mode cannot replicate an existing full Kalman state; start fresh or Resume a sharded fleet checkpoint")
	}
	return &shardedP{
		reps:   reps,
		blocks: optimize.SplitBlocks(m.Params.LayerSizes(), opt.KCfg.BlockSize),
		states: make([]*optimize.KalmanState, len(reps)),
	}, nil
}

// replicatedP keeps a full P inside every replica's optimizer, so P travels
// in the optimizer checkpoint: Revive and ring recovery copy it eagerly
// with the weights, and lockstep keeps the copies bitwise identical.
type replicatedP struct{ reps []*replica }

func (p replicatedP) over(id int, _ *cluster.Ring) optimize.Covariance {
	return p.reps[id].opt.State()
}

func (replicatedP) settle([]int) error  { return nil }
func (replicatedP) recover([]int) error { return nil }

func (p replicatedP) diag(id int) []float64 { return p.reps[id].opt.PDiagonal() }

func (p replicatedP) lambda(id int) (float64, bool) { return p.reps[id].opt.Lambda(), true }

func (p replicatedP) drift(live []int) float64 {
	ref := p.reps[live[0]].opt.State()
	d := 0.0
	for _, id := range live[1:] {
		if dd := ref.PDrift(p.reps[id].opt.State()); dd > d {
			d = dd
		}
	}
	return d
}

func (p replicatedP) resident(id int) int64 { return p.reps[id].opt.PBytes() }

func (replicatedP) save(*Checkpoint) error { return nil }

// load builds P = I eagerly on every replica whose filter restored none,
// so replicas start bit-identical with a diagonal for the gate — before
// the placement check, so a rejected checkpoint leaves none without P.
func (p replicatedP) load(ck *Checkpoint, _ []int) error {
	for _, r := range p.reps {
		r.opt.InitState(r.model)
	}
	if ck != nil && ck.PShard {
		return fmt.Errorf("fleet: checkpoint has a sharded covariance, fleet replicates P")
	}
	return nil
}

func (replicatedP) reassign([]int) (int64, int64) { return 0, 0 }
func (replicatedP) row() *PShardStats             { return nil }
