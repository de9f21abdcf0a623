package fleet

import (
	"bytes"
	"fmt"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/md"
	"fekf/internal/online"
	"fekf/internal/optimize"
)

// ReplicaCheckpoint is one replica's private shard state: its replay
// buffer (with RNG position), gate and stream counters.  The model and
// Kalman filter are deliberately absent — under the fleet invariant they
// are bitwise identical across replicas, so the checkpoint stores the
// shared state exactly once.
type ReplicaCheckpoint struct {
	ID             int
	Alive          bool
	FramesAccepted int64
	FramesGatedOut int64
	Replay         *online.ReplayCheckpoint
	Gate           *online.GateCheckpoint
}

// Checkpoint is the combined on-disk state of a fleet: the shared model
// stream and optimizer state (stored once — the consistency invariant
// makes per-replica copies redundant), plus each replica's private replay
// buffer, gate and counters.
type Checkpoint struct {
	System      string
	Species     []md.Species
	NumAtoms    int64
	Steps       int64
	ShardPolicy ShardPolicy
	RR          uint64 // round-robin shard cursor

	Model    []byte // shared deepmd model stream (Model.EncodeTo)
	Opt      *optimize.FEKFCheckpoint
	Replicas []*ReplicaCheckpoint

	// PShard records that the fleet ran with a sharded covariance; PCk
	// then carries every P row slab exactly once — saved by its owner
	// rank — plus the replicated scalar filter state, and Opt.Kalman is
	// nil.  A replicated fleet stores its P once, in Opt.Kalman.
	PShard bool
	PCk    *optimize.SlabCheckpoint
}

// covariance returns the P ck carries as a slab checkpoint, whichever
// field holds it.
func (ck *Checkpoint) covariance() (*optimize.SlabCheckpoint, error) {
	switch {
	case ck.PCk != nil:
		return ck.PCk, nil
	case ck.Opt != nil && ck.Opt.Kalman != nil:
		return ck.Opt.Kalman.Slabs(), nil
	}
	return nil, fmt.Errorf("fleet: checkpoint holds no covariance")
}

// encodeModel serializes a model into the shared checkpoint stream.
func encodeModel(m *deepmd.Model) ([]byte, error) {
	var buf bytes.Buffer
	if err := m.EncodeTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// buildCheckpoint captures the fleet state, taking the shared model from
// the first live replica (any would do — they are bitwise identical).
// Conductor goroutine only (or after the loop has exited).
func (f *Fleet) buildCheckpoint() (*Checkpoint, error) {
	live := f.liveIDs()
	if len(live) == 0 {
		return nil, fmt.Errorf("fleet: no live replica to checkpoint the shared state from")
	}
	src := f.reps[live[0]]
	modelBytes, err := encodeModel(src.model)
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{
		System:      f.system,
		Species:     f.species,
		NumAtoms:    f.naPer.Load(),
		Steps:       f.loop.Steps.Load(),
		ShardPolicy: f.cfg.ShardPolicy,
		RR:          f.rr.Load(),
		Model:       modelBytes,
		Opt:         f.opt.Checkpoint(),
	}
	for _, r := range f.reps {
		replay, gate, accepted, gatedOut := r.Checkpoint()
		ck.Replicas = append(ck.Replicas, &ReplicaCheckpoint{
			ID:             r.id,
			Alive:          r.alive.Load(),
			FramesAccepted: accepted,
			FramesGatedOut: gatedOut,
			Replay:         replay,
			Gate:           gate,
		})
	}
	if err := f.cov.save(ck); err != nil {
		return nil, err
	}
	return ck, nil
}

// WriteCheckpoint persists the fleet state crash-safely (see
// online.Loop.WriteCheckpoint).  Must run before Start or after Stop; the
// running conductor writes its own periodic checkpoints.
func (f *Fleet) WriteCheckpoint(path string) error { return f.loop.WriteCheckpoint(path) }

// Resume reconstructs a fleet from a checkpoint: the fleet is built from
// the checkpointed model and filter hyper-parameters, then restored the
// way a rollback restores it (applyCheckpoint) — every replica's weights,
// liveness, replay buffer with the sampling RNG at the checkpointed
// position, gate and counters, and P (λ, update counter, every row,
// bitwise) fit to the live replicas.  The replica count, shard policy and
// whether P is sharded come from the checkpoint; cfg supplies the runtime
// knobs.  A covariance that is not bitwise symmetric is rejected
// (optimize.SlabCheckpoint.Validate), and so is a replay stream that
// ingest would not accept (validateReplays).
func Resume(ck *Checkpoint, cfg Config) (*Fleet, error) {
	if len(ck.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: checkpoint has no replicas")
	}
	m, opt, err := online.RestoreModel(ck.Model, filterConfig(ck.Opt), nil)
	if err != nil {
		return nil, err
	}
	cfg.Replicas = len(ck.Replicas)
	cfg.ShardPolicy = ck.ShardPolicy
	cfg.PShard = ck.PShard
	f, err := build(m, opt, &dataset.Dataset{System: ck.System, Species: ck.Species}, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := f.applyCheckpoint(ck); err != nil {
		return nil, err
	}
	return f, nil
}

// validateReplays checks every replica's replay stream against the
// checkpoint's species and atom count and the model cutoff, before a
// restore replaces anything (online.ReplayCheckpoint.Validate).
func (ck *Checkpoint) validateReplays(cutoff float64) error {
	for _, rck := range ck.Replicas {
		if err := rck.Replay.Validate(ck.Species, cutoff, int(ck.NumAtoms)); err != nil {
			return fmt.Errorf("fleet: replica %d: %w", rck.ID, err)
		}
	}
	return nil
}

// restoreStream rewinds every replica's liveness and ingest lane and the
// fleet counters to ck.  Conductor only (or before Start).
func (f *Fleet) restoreStream(ck *Checkpoint) {
	for i, rck := range ck.Replicas {
		r := f.reps[i]
		r.alive.Store(rck.Alive)
		r.Restore(rck.Replay, rck.Gate, rck.FramesAccepted, rck.FramesGatedOut)
	}
	f.naPer.Store(ck.NumAtoms)
	f.loop.Steps.Store(ck.Steps)
	f.rr.Store(ck.RR)
}
