package fleet

import (
	"fmt"
	"sync/atomic"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/online"
	"fekf/internal/optimize"
)

// replica is one member of the fleet: a full model + Kalman filter pair
// (bitwise identical to every other live replica's) plus its own ingest
// lane — the same queue, gate, replay buffer and published snapshot the
// single trainer holds — that the shard router feeds and the predict
// router reads.
//
// The model, optimizer and the lane's gate and replay buffer are owned by
// the fleet's conductor goroutine; the lane's queue, snapshot and mirrors,
// and the atomics below are the concurrent surface.
type replica struct {
	*online.Lane

	id    int
	dev   *device.Device
	model *deepmd.Model
	opt   *optimize.FEKF
	// pshard marks the sharded-covariance fleet mode: the replica's own
	// FEKF never materializes a full Kalman state (that is the point of
	// sharding) — the conductor holds the rank's P slabs in Fleet.pstates.
	pshard bool

	alive atomic.Bool
	// pBytes mirrors the replica's resident covariance bytes (full P
	// replicated, or the owned slabs under pshard) for the stats readers;
	// the conductor refreshes it after steps and membership changes.
	pBytes atomic.Int64
	routed atomic.Int64
}

// newReplica clones the prototype model and optimizer onto a fresh
// simulated device and builds the replica's private ingest lane.
func newReplica(id int, m *deepmd.Model, opt *optimize.FEKF, proto *dataset.Dataset, cfg Config) (*replica, error) {
	dev := device.New(fmt.Sprintf("fleet%d", id), device.A100())
	model := m.CloneFor(dev)
	ropt, err := optimize.RestoreFEKF(opt.Checkpoint(), model)
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %d optimizer: %w", id, err)
	}
	// Eager state: NewKalmanState is deterministic (P = I), so replicas
	// built this way start bit-identical even before the first step, and
	// the gate has a P diagonal to score against immediately.  In pshard
	// mode the full state is never built — the conductor allocates only
	// this replica's row slabs.
	if !cfg.PShard {
		ropt.InitState(model)
	}
	r := &replica{
		Lane: online.NewLane(proto.System, proto.Species, online.NewQueue(cfg.QueueSize, cfg.QueuePolicy),
			online.NewReplay(cfg.WindowSize, cfg.ReservoirSize, cfg.Seed+int64(id)), cfg.Gate),
		id:     id,
		dev:    dev,
		model:  model,
		opt:    ropt,
		pshard: cfg.PShard,
	}
	r.alive.Store(true)
	r.pBytes.Store(ropt.PBytes())
	return r, nil
}

// admit runs one frame through the replica's lane.  Under pshard each
// replica gates on the diagonal of its own owned P rows (zeros elsewhere)
// — a documented approximation: scores touching unowned rows read 0, so
// the partial gate is more permissive than the full diagonal, never
// stricter.  Conductor goroutine only.
func (f *Fleet) admit(r *replica, s dataset.Snapshot) {
	pd := r.opt.PDiagonal()
	if f.cfg.PShard {
		pd = nil
		if st := f.pstates[r.id]; st != nil {
			pd = st.PDiagonalOwned()
		}
	}
	if err := r.Admit(s, r.model, pd, f.loop.Recorder(), r.id); err != nil {
		f.loop.SetErr(fmt.Errorf("replica %d gate: %w", r.id, err))
	}
}

// publish swaps in fresh copy-on-write snapshots of the given replicas'
// models at step, stamped from the fleet clock so snapshot ages are
// deterministic under a fake clock.  Conductor goroutine only (the clones
// must see quiescent weights).
func (f *Fleet) publish(ids []int, step int64) {
	for _, id := range ids {
		r := f.reps[id]
		r.Publish(r.model, step, r.opt.Lambda(), f.clock.Now())
	}
}

// restoreShared replaces the replica's model and filter with the shared
// state carried by a fleet checkpoint — the rejoin/catch-up path.
// Conductor goroutine only.
func (r *replica) restoreShared(modelBytes []byte, opt *optimize.FEKFCheckpoint) error {
	m, ropt, err := online.RestoreModel(modelBytes, opt, r.dev)
	if err != nil {
		return fmt.Errorf("fleet: replica %d: %w", r.id, err)
	}
	// In pshard mode the checkpoint carries no Kalman state (P lives in
	// the conductor's shard states) and none is materialized here.
	if !r.pshard {
		ropt.InitState(m)
	}
	r.model, r.opt = m, ropt
	return nil
}
