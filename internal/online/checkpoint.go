package online

import (
	"bytes"
	"fmt"
	"math"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/md"
	"fekf/internal/optimize"
	"fekf/internal/train"
)

// Checkpoint is the combined on-disk state of an online trainer: the model
// stream, the full optimizer state (λ schedule position, update counter,
// every P block), the replay buffer and gate, and the stream counters.
// Restoring it resumes training with an identical λ schedule and P — the
// next optimizer step computes exactly what the uninterrupted trainer's
// would for the same minibatch.
type Checkpoint struct {
	System   string
	Species  []md.Species
	NumAtoms int64

	Steps          int64
	FramesGatedOut int64
	FramesAccepted int64

	Model  []byte // deepmd model stream (Model.EncodeTo)
	Opt    *optimize.FEKFCheckpoint
	Replay *ReplayCheckpoint
	Gate   *GateCheckpoint
}

// buildCheckpoint captures the trainer state.  Must run on the trainer
// goroutine (or after the loop has exited).
func (t *Trainer) buildCheckpoint() (*Checkpoint, error) {
	var buf bytes.Buffer
	if err := t.model.EncodeTo(&buf); err != nil {
		return nil, err
	}
	replay, gate, accepted, gatedOut := t.lane.Checkpoint()
	return &Checkpoint{
		System:         t.system,
		Species:        t.species,
		NumAtoms:       t.naPer.Load(),
		Steps:          t.loop.Steps.Load(),
		FramesGatedOut: gatedOut,
		FramesAccepted: accepted,
		Model:          buf.Bytes(),
		Opt:            t.opt.Checkpoint(),
		Replay:         replay,
		Gate:           gate,
	}, nil
}

// WriteCheckpoint persists the trainer state crash-safely (see
// Loop.WriteCheckpoint).  Must run before Start or after Stop; the running
// loop writes its own periodic checkpoints.
func (t *Trainer) WriteCheckpoint(path string) error { return t.loop.WriteCheckpoint(path) }

// RestoreModel rebuilds a model from its checkpoint stream onto dev (nil
// keeps the default device) together with the FEKF optimizer checkpointed
// alongside it — λ, update counter and every P block, bitwise.
func RestoreModel(model []byte, opt *optimize.FEKFCheckpoint, dev *device.Device) (*deepmd.Model, *optimize.FEKF, error) {
	if opt == nil {
		return nil, nil, fmt.Errorf("online: checkpoint has no optimizer state")
	}
	m, err := deepmd.DecodeModel(bytes.NewReader(model))
	if err != nil {
		return nil, nil, err
	}
	if dev != nil {
		m.Dev = dev
	}
	o, err := optimize.RestoreFEKF(opt, m)
	if err != nil {
		return nil, nil, err
	}
	return m, o, nil
}

// ResumeTrainer reconstructs a trainer from a checkpoint: model weights,
// optimizer (λ, update counter, P blocks — bitwise), replay buffer and
// gate all resume where the checkpointed trainer stopped.  The replay
// stream is validated first (ReplayCheckpoint.Validate).  dev places the
// model (nil keeps the default device); cfg supplies the runtime knobs,
// with its replay/gate capacities overridden by the checkpointed ones so
// the restored buffer structure matches.
func ResumeTrainer(ck *Checkpoint, dev *device.Device, cfg TrainerConfig) (*Trainer, error) {
	m, opt, err := RestoreModel(ck.Model, ck.Opt, dev)
	if err != nil {
		return nil, err
	}
	if err := ck.Replay.Validate(ck.Species, m.Cfg.Rc, int(ck.NumAtoms)); err != nil {
		return nil, err
	}
	t, err := NewTrainer(m, opt, &dataset.Dataset{System: ck.System, Species: ck.Species}, cfg)
	if err != nil {
		return nil, err
	}
	t.restoreStream(ck)
	return t, nil
}

// restoreStream rewinds the stream side of the trainer — counters, replay
// buffer at its checkpointed sampling-RNG position (so the resumed trainer
// draws exactly the minibatch sequence the uninterrupted one would have),
// gate — and refreshes the filter mirrors from the current optimizer.
func (t *Trainer) restoreStream(ck *Checkpoint) {
	t.naPer.Store(ck.NumAtoms)
	t.loop.Steps.Store(ck.Steps)
	t.lane.Restore(ck.Replay, ck.Gate, ck.FramesAccepted, ck.FramesGatedOut)
	t.lambdaBits.Store(math.Float64bits(t.opt.Lambda()))
	t.pBytes.Store(t.opt.PBytes())
}

// rollbackTo restores a checkpoint in place — model, optimizer, replay
// buffer, gate and counters, as ResumeTrainer does on a fresh trainer —
// and republishes a healthy snapshot.  Frames admitted after the
// checkpoint was taken are dropped along with the diverged state: the
// stream replays forward from the restored RNG position exactly as the
// uninterrupted trainer would have.
func (t *Trainer) rollbackTo(ck *Checkpoint) (int64, error) {
	m, opt, err := RestoreModel(ck.Model, ck.Opt, t.model.Dev)
	if err != nil {
		return 0, err
	}
	if err := ck.Replay.Validate(ck.Species, m.Cfg.Rc, int(ck.NumAtoms)); err != nil {
		return 0, err
	}
	t.model, t.opt = m, opt
	t.stepper = train.OptStepper{M: m, Opt: opt}
	t.restoreStream(ck)
	t.publish()
	return ck.Steps, nil
}
