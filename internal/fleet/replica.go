package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/online"
	"fekf/internal/optimize"
)

// replica is one member of the fleet: a full model (bitwise identical to
// every other live replica's; its share of P lives in the fleet's
// covariance, its filter settings in the fleet's opt) plus its own ingest
// lane — the same queue, gate, replay buffer and published snapshot the
// single trainer holds — that the shard router feeds and the predict
// router reads.
//
// The model and the lane's gate and replay buffer are owned by the
// fleet's conductor goroutine; the lane's queue, snapshot and mirrors, and
// the atomics below are the concurrent surface.
type replica struct {
	*online.Lane

	id    int
	dev   *device.Device
	model *deepmd.Model

	alive atomic.Bool
	// pBytes mirrors the replica's resident covariance bytes (full P
	// replicated, or the owned slabs when sharded) for the stats readers;
	// the conductor refreshes it after steps and membership changes.
	pBytes atomic.Int64
	routed atomic.Int64
}

// newReplica clones the prototype model onto a fresh simulated device and
// builds the replica's private ingest lane.  P is the fleet covariance's
// to build.
func newReplica(id int, m *deepmd.Model, proto *dataset.Dataset, cfg Config) *replica {
	dev := device.New(fmt.Sprintf("fleet%d", id), device.A100())
	r := &replica{
		Lane: online.NewLane(proto.System, proto.Species, online.NewQueue(cfg.QueueSize, cfg.QueuePolicy),
			online.NewReplay(cfg.WindowSize, cfg.ReservoirSize, cfg.Seed+int64(id)), cfg.Gate),
		id:    id,
		dev:   dev,
		model: m.CloneFor(dev),
	}
	r.alive.Store(true)
	return r
}

// admit runs one frame through the replica's lane, gating on the P
// diagonal of the replica's covariance state.  Conductor goroutine only.
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
		r.Publish(r.model, step, f.clock.Now())
	}
}

// filterConfig returns ck without its Kalman state: the filter
// hyper-parameters the fleet's opt holds, while P lives in the fleet's
// covariance.
func filterConfig(ck *optimize.FEKFCheckpoint) *optimize.FEKFCheckpoint {
	if ck == nil {
		return nil
	}
	h := *ck
	h.Kalman = nil
	return &h
}

// restoreModel replaces the replica's model with the shared model stream
// of a checkpoint — the rejoin, catch-up and rollback path.  Conductor
// goroutine only.
func (r *replica) restoreModel(modelBytes []byte) error {
	m, err := deepmd.DecodeModel(bytes.NewReader(modelBytes))
	if err != nil {
		return fmt.Errorf("fleet: replica %d: %w", r.id, err)
	}
	m.Dev = r.dev
	r.model = m
	return nil
}

// catchUp copies live replica src's weights into every target replica,
// bitwise: the one catch-up path of Revive and ring recovery.  P follows
// in the covariance refit.  Conductor goroutine only.
func (f *Fleet) catchUp(src int, targets []int) error {
	modelBytes, err := encodeModel(f.reps[src].model)
	if err != nil {
		return fmt.Errorf("fleet: checkpoint survivor %d: %w", src, err)
	}
	var errs []error
	for _, id := range targets {
		errs = append(errs, f.reps[id].restoreModel(modelBytes))
	}
	return errors.Join(errs...)
}
