package fleet

import (
	"errors"
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

	alive atomic.Bool
	// pBytes mirrors the replica's resident covariance bytes (full P
	// replicated, or the owned slabs when sharded) for the stats readers;
	// the conductor refreshes it after steps and membership changes.
	pBytes atomic.Int64
	routed atomic.Int64
}

// newReplica clones the prototype model and optimizer onto a fresh
// simulated device and builds the replica's private ingest lane.  The
// covariance is the placement's to build.
func newReplica(id int, m *deepmd.Model, opt *optimize.FEKF, proto *dataset.Dataset, cfg Config) (*replica, error) {
	dev := device.New(fmt.Sprintf("fleet%d", id), device.A100())
	model := m.CloneFor(dev)
	ropt, err := optimize.RestoreFEKF(opt.Checkpoint(), model)
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %d optimizer: %w", id, err)
	}
	r := &replica{
		Lane: online.NewLane(proto.System, proto.Species, online.NewQueue(cfg.QueueSize, cfg.QueuePolicy),
			online.NewReplay(cfg.WindowSize, cfg.ReservoirSize, cfg.Seed+int64(id)), cfg.Gate),
		id:    id,
		dev:   dev,
		model: model,
		opt:   ropt,
	}
	r.alive.Store(true)
	return r, nil
}

// admit runs one frame through the replica's lane, gating on the P
// diagonal the placement gives it.  Conductor goroutine only.
func (f *Fleet) admit(r *replica, s dataset.Snapshot) {
	if err := r.Admit(s, r.model, f.cov.diag(r.id), f.loop.Recorder(), r.id); err != nil {
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
// state carried by a fleet checkpoint — the rejoin, catch-up and rollback
// path — and frees the Kalman state it replaces from the replica's device.
// Conductor goroutine only.
func (r *replica) restoreShared(modelBytes []byte, opt *optimize.FEKFCheckpoint) error {
	m, ropt, err := online.RestoreModel(modelBytes, opt, r.dev)
	if err != nil {
		return fmt.Errorf("fleet: replica %d: %w", r.id, err)
	}
	if ks := r.opt.State(); ks != nil {
		ks.Free()
	}
	r.model, r.opt = m, ropt
	return nil
}

// catchUp copies live replica src's model and filter into every target
// replica, bitwise: the one catch-up path of Revive and ring recovery.
// Replicated P travels inside the filter; sharded slabs stay with the
// placement.  Conductor goroutine only.
func (f *Fleet) catchUp(src int, targets []int) error {
	s := f.reps[src]
	modelBytes, err := encodeModel(s.model)
	if err != nil {
		return fmt.Errorf("fleet: checkpoint survivor %d: %w", src, err)
	}
	ck := s.opt.Checkpoint()
	var errs []error
	for _, id := range targets {
		errs = append(errs, f.reps[id].restoreShared(modelBytes, ck))
	}
	return errors.Join(errs...)
}
