package online

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/guard"
	"fekf/internal/md"
	"fekf/internal/obs"
	"fekf/internal/optimize"
	"fekf/internal/train"
)

// TrainerConfig controls the online trainer loop.
type TrainerConfig struct {
	// BatchSize is the minibatch drawn from the replay buffer per step.
	BatchSize int
	// QueueSize bounds the ingest queue (frames).
	QueueSize int
	// QueuePolicy selects the full-queue behaviour.
	QueuePolicy Policy
	// WindowSize and ReservoirSize size the replay buffer.
	WindowSize, ReservoirSize int
	// SnapshotEvery publishes a fresh model snapshot every that many steps
	// (default 8; the initial snapshot is always published at Start).
	SnapshotEvery int
	// CheckpointPath, when set with CheckpointEvery > 0, receives a
	// combined crash-safe checkpoint every CheckpointEvery steps and a
	// final one at Stop.
	CheckpointPath  string
	CheckpointEvery int
	// CheckpointKeep > 0 turns CheckpointPath into a checksummed
	// retention ring: each write lands as a CRC32-C framed generation
	// (ckpt.000017.gob style) and the last CheckpointKeep generations are
	// retained, giving the divergence guard healthy states to roll back
	// to.  0 keeps the legacy single-file behaviour.
	CheckpointKeep int
	// Guard, when Enabled, runs the numerical health sentinel after every
	// step (λ bounds, sampled weight/P-diagonal finiteness and blow-up
	// thresholds); a divergence triggers an automatic rollback to the
	// newest valid checkpoint generation.
	Guard guard.SentinelConfig
	// Chaos deterministically injects state faults (NaN/Inf weight poison
	// at a given step) to drive the guard's recovery path under test.
	Chaos guard.ChaosConfig
	// Gate configures uncertainty gating of the ingest stream.
	Gate GateConfig
	// TrainIdle keeps drawing replay minibatches while no new frames
	// arrive; off, the trainer only steps after fresh ingest.
	TrainIdle bool
	// Seed drives replay sampling.
	Seed int64
	// OnStep, if non-nil, runs on the trainer goroutine after every
	// optimizer step.
	OnStep func(step int64, info optimize.StepInfo)
	// Metrics, when non-nil, receives step and checkpoint latency
	// observations (see NewMetrics).  Nil disables instrumentation at the
	// cost of one pointer check per step.
	Metrics *Metrics
	// Trace, when non-nil, records a per-step phase timeline (ingest
	// admit, gate, sample, step, snapshot publish, checkpoint) into the
	// ring served at /v1/trace.
	Trace *obs.Tracer
}

func (c TrainerConfig) withDefaults() TrainerConfig {
	if c.BatchSize < 1 {
		c.BatchSize = 8
	}
	if c.QueueSize < 1 {
		c.QueueSize = 256
	}
	if c.WindowSize < 1 {
		c.WindowSize = 256
	}
	if c.ReservoirSize < 1 {
		c.ReservoirSize = 256
	}
	if c.SnapshotEvery < 1 {
		c.SnapshotEvery = 8
	}
	return c
}

// ModelSnapshot is one published copy-on-write view of the trainer: an
// immutable deep copy of the model plus the schedule position it was taken
// at.  Readers run forwards on Model concurrently; nothing here is ever
// mutated after publication.
type ModelSnapshot struct {
	Model     *deepmd.Model
	Step      int64
	Published time.Time
}

// Trainer is the online-learning engine: one goroutine — the shared Loop —
// owns the model and optimizer and drains the ingest queue through the
// gate into the replay buffer, stepping FEKF on replay minibatches and
// publishing snapshots via an atomic pointer swap.
type Trainer struct {
	cfg     TrainerConfig
	model   *deepmd.Model
	opt     *optimize.FEKF
	stepper train.Stepper
	system  string
	species []md.Species
	cutoff  float64      // the model's Rc, which bounds every frame's box
	naPer   atomic.Int64 // per-frame atom count, fixed by the first frame

	lane *Lane
	loop *Loop[Checkpoint]

	// chaosFired makes the configured poison injection one-shot, so the
	// re-run of the poisoned step after rollback proceeds clean.
	chaosFired bool

	// forceGroups caches the optimizer's force-group count at build time:
	// it is invariant for the trainer's lifetime, and reading it off t.opt
	// would race with a guard rollback swapping the optimizer out (Stats
	// runs from any goroutine).
	forceGroups int

	lambdaBits atomic.Uint64
	pBytes     atomic.Int64
}

// NewTrainer builds a trainer around an initialized model (normalization
// and energy bias set) and a FEKF optimizer.  proto supplies the system
// name and species table every streamed frame must match; if it carries
// snapshots, they fix the expected atom count (otherwise the first
// ingested frame does).
func NewTrainer(m *deepmd.Model, opt *optimize.FEKF, proto *dataset.Dataset, cfg TrainerConfig) (*Trainer, error) {
	if m == nil || opt == nil {
		return nil, fmt.Errorf("online: NewTrainer needs a model and an optimizer")
	}
	if proto == nil || len(proto.Species) == 0 {
		return nil, fmt.Errorf("online: NewTrainer needs a prototype dataset with a species table")
	}
	if len(proto.Species) != m.Cfg.NumSpecies {
		return nil, fmt.Errorf("online: prototype has %d species, model wants %d", len(proto.Species), m.Cfg.NumSpecies)
	}
	cfg = cfg.withDefaults()
	t := &Trainer{
		cfg:     cfg,
		model:   m,
		opt:     opt,
		stepper: train.OptStepper{M: m, Opt: opt},
		system:  proto.System,
		species: proto.Species,
		cutoff:  m.Cfg.Rc,
		lane: NewLane(proto.System, proto.Species, NewQueue(cfg.QueueSize, cfg.QueuePolicy),
			NewReplay(cfg.WindowSize, cfg.ReservoirSize, cfg.Seed), cfg.Gate),
	}
	lc := LoopConfig{
		SnapshotEvery:   cfg.SnapshotEvery,
		CheckpointPath:  cfg.CheckpointPath,
		CheckpointEvery: cfg.CheckpointEvery,
		CheckpointKeep:  cfg.CheckpointKeep,
		Guard:           cfg.Guard,
		TrainIdle:       cfg.TrainIdle,
		OnStep:          cfg.OnStep,
		Trace:           cfg.Trace,
		Queues:          []*Queue{t.lane.Queue},
	}
	if cfg.Metrics != nil {
		lc.CheckpointSeconds = cfg.Metrics.CheckpointSeconds
	}
	t.loop = NewLoop(Backend[Checkpoint]{
		Intake:  t.intake,
		Ready:   func() bool { return t.lane.Replay().Len() >= t.cfg.BatchSize },
		Step:    t.step,
		Publish: t.publish,
		Build:   t.buildCheckpoint,
		Apply:   t.rollbackTo,
	}, lc)
	if proto.Len() > 0 {
		t.naPer.Store(int64(proto.Snapshots[0].NumAtoms()))
	}
	t.lambdaBits.Store(math.Float64bits(opt.Lambda()))
	t.pBytes.Store(opt.PBytes())
	t.forceGroups = opt.ForceGroups
	return t, nil
}

// Species returns the species table frames and predictions must use.
func (t *Trainer) Species() []md.Species { return t.species }

// Cutoff returns the model's neighbour cutoff, which bounds every frame's
// box.
func (t *Trainer) Cutoff() float64 { return t.cutoff }

// System returns the physical system name.
func (t *Trainer) System() string { return t.system }

// NumAtoms returns the per-frame atom count the trainer is locked to, or
// 0 before the first frame fixes it.
func (t *Trainer) NumAtoms() int { return int(t.naPer.Load()) }

// ValidateFrame checks a frame's structure against the trainer's system:
// consistent atom count, coordinate/force lengths, species range and box.
func (t *Trainer) ValidateFrame(s *dataset.Snapshot) error {
	return ValidateFrame(s, t.species, t.cutoff, int(t.naPer.Load()))
}

// ValidateFrame checks a streamed frame's structure against a species table
// and an expected per-frame atom count (0 accepts any count — the first
// frame then fixes it), and that its box keeps the neighbour scan at the
// model cutoff bounded (md.CheckBox).  Shared by the single trainer and
// the fleet's sharded ingest.
func ValidateFrame(s *dataset.Snapshot, species []md.Species, cutoff float64, wantAtoms int) error {
	na := s.NumAtoms()
	if na == 0 {
		return fmt.Errorf("online: frame has no atoms")
	}
	if wantAtoms != 0 && na != wantAtoms {
		return fmt.Errorf("online: frame has %d atoms, trainer wants %d", na, wantAtoms)
	}
	if len(s.Pos) != 3*na {
		return fmt.Errorf("online: frame has %d coordinates for %d atoms", len(s.Pos), na)
	}
	if len(s.Forces) != 3*na {
		return fmt.Errorf("online: frame has %d force components for %d atoms", len(s.Forces), na)
	}
	for i, ty := range s.Types {
		if ty < 0 || ty >= len(species) {
			return fmt.Errorf("online: atom %d has species %d, table holds %d", i, ty, len(species))
		}
	}
	if err := md.CheckBox(s.Box, cutoff, na); err != nil {
		return fmt.Errorf("online: %w", err)
	}
	return nil
}

// Ingest validates and offers one labelled frame to the queue, reporting
// whether it was accepted (false without error means dropped by policy).
func (t *Trainer) Ingest(s dataset.Snapshot) (bool, error) {
	if err := t.ValidateFrame(&s); err != nil {
		return false, err
	}
	t.naPer.CompareAndSwap(0, int64(s.NumAtoms()))
	ok, err := t.lane.Queue.Push(s)
	if ok {
		t.loop.Wake()
	}
	return ok, err
}

// Snapshot returns the latest published model snapshot; never nil after
// Start.  Readers use Snapshot().Model freely and concurrently.
func (t *Trainer) Snapshot() *ModelSnapshot { return t.lane.Snapshot() }

// Start publishes the initial snapshot and launches the trainer loop.
func (t *Trainer) Start() { t.loop.Start() }

// Stop shuts the trainer down gracefully: the queue closes (rejecting new
// frames), the loop finishes its in-flight step and drains already-queued
// frames through the gate into the replay buffer, a final snapshot is
// published and — when CheckpointPath is set — a final checkpoint written.
// ctx bounds the wait for the loop to finish.
func (t *Trainer) Stop(ctx context.Context) error { return t.loop.Stop(ctx) }

// intake drains whatever is queued right now through the gate into the
// replay buffer.  The trainer sets no wake deadline: it waits for frames.
func (t *Trainer) intake(bool) (int, time.Time) {
	got := 0
	for {
		s, ok := t.lane.Queue.Pop()
		if !ok {
			return got, time.Time{}
		}
		t.admit(s)
		got++
	}
}

// admit runs one frame through the trainer's lane, gating it against the
// live filter's P diagonal.
func (t *Trainer) admit(s dataset.Snapshot) {
	if err := t.lane.Admit(s, t.model, t.opt.PDiagonal(), t.loop.Recorder(), -1); err != nil {
		t.loop.SetErr(fmt.Errorf("gate: %w", err))
	}
}

// step draws one replay minibatch and advances the optimizer: the
// trainer's Backend.Step.
func (t *Trainer) step(rec *obs.StepRecorder) (optimize.StepInfo, func() guard.Sample, bool) {
	s0 := time.Now()
	batch := t.lane.Replay().Sample(t.cfg.BatchSize)
	rec.Span(-1, "sample", s0, time.Since(s0))
	if len(batch) == 0 {
		return optimize.StepInfo{}, nil, false
	}
	ds := &dataset.Dataset{System: t.system, Species: t.species, Snapshots: batch}
	idx := make([]int, len(batch))
	for i := range idx {
		idx[i] = i
	}
	k0 := time.Now()
	info, err := t.stepper.Step(ds, idx)
	stepDur := time.Since(k0)
	rec.Span(-1, "step", k0, stepDur)
	if m := t.cfg.Metrics; m != nil {
		m.StepSeconds.Observe(stepDur.Seconds())
	}
	if err != nil {
		t.loop.SetErr(fmt.Errorf("step: %w", err))
		return info, nil, false
	}
	n := t.loop.Steps.Add(1)
	if d := t.cfg.Chaos.MaybePoison(n, &t.chaosFired, t.model.NumParams()); d != nil {
		t.model.Params.AddFlat(d)
	}
	t.lambdaBits.Store(math.Float64bits(t.opt.Lambda()))
	t.pBytes.Store(t.opt.PBytes())
	return info, func() guard.Sample {
		return guard.Sample{
			Lambda:  t.opt.Lambda(),
			Weights: t.model.Params.FlattenValues(),
			PDiag:   t.opt.PDiagonal(),
			Aux:     []float64{info.EnergyABE, info.ForceABE},
		}
	}, true
}

// publish swaps in a fresh copy-on-write snapshot.  Called from the loop
// goroutine (or from Start/Stop while the loop is not running), so the
// clone always sees a quiescent weight set.
func (t *Trainer) publish() {
	t.lane.Publish(t.model, t.loop.Steps.Load(), time.Now())
}

// Stats is the observable state of the trainer, served at /v1/stats.
type Stats struct {
	System        string  `json:"system"`
	Steps         int64   `json:"steps"`
	Lambda        float64 `json:"lambda"`
	KalmanUpdates int64   `json:"kalman_updates"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	// QueueOccupancy is the filled fraction of the ingest queue capacity
	// (summed across replicas for a fleet) — the queue-pressure signal
	// the fleet autoscaler keys on.
	QueueOccupancy float64 `json:"queue_occupancy"`
	FramesQueued   int64   `json:"frames_queued"`
	FramesDropped  int64   `json:"frames_dropped"`
	FramesGatedOut int64   `json:"frames_gated_out"`
	FramesAccepted int64   `json:"frames_accepted"`
	FramesSeen     int64   `json:"frames_seen"`
	GateEMA        float64 `json:"gate_ema"`
	// GateAcceptRate is the fraction of gate-scored frames admitted so far
	// (accepted / (accepted + gated out); 0 before any frame arrives).
	GateAcceptRate float64 `json:"gate_accept_rate"`
	ReplaySize     int64   `json:"replay_size"`
	// Replay-buffer occupancy: window and reservoir fill, the combined
	// capacity, and the filled fraction of that capacity.
	ReplayWindowLen    int64   `json:"replay_window_len"`
	ReplayReservoirLen int64   `json:"replay_reservoir_len"`
	ReplayCapacity     int64   `json:"replay_capacity"`
	ReplayOccupancy    float64 `json:"replay_occupancy"`
	SnapshotStep       int64   `json:"snapshot_step"`
	SnapshotAgeMs      int64   `json:"snapshot_age_ms"`
	Checkpoints        int64   `json:"checkpoints_written"`
	// PResidentBytes is the resident Kalman covariance footprint (summed
	// across replicas for a fleet; each replica holds the full P when
	// replicated, only its owned row slabs under covariance sharding) —
	// the same quantity the fekf_p_resident_bytes gauge exports.
	PResidentBytes int64  `json:"p_resident_bytes"`
	LastError      string `json:"last_error,omitempty"`
	// Guard is the self-healing ledger (nil when neither the sentinel nor
	// the checkpoint ring is configured): divergence/rollback/watchdog
	// counts, the degraded flag /healthz keys on, and the checkpoint-ring
	// generation and age.
	Guard *guard.Status `json:"guard,omitempty"`
}

// DeriveRatios fills the occupancy and accept-rate ratios from the counts
// already summed into st.
func (st *Stats) DeriveRatios() {
	if st.ReplayCapacity > 0 {
		st.ReplayOccupancy = float64(st.ReplaySize) / float64(st.ReplayCapacity)
	}
	if st.QueueCapacity > 0 {
		st.QueueOccupancy = float64(st.QueueDepth) / float64(st.QueueCapacity)
	}
	if scored := st.FramesAccepted + st.FramesGatedOut; scored > 0 {
		st.GateAcceptRate = float64(st.FramesAccepted) / float64(scored)
	}
}

// Stats returns a consistent-enough view assembled from atomics; safe from
// any goroutine.
func (t *Trainer) Stats() Stats {
	st := t.loop.Stats()
	st.System = t.system
	st.Lambda = math.Float64frombits(t.lambdaBits.Load())
	st.KalmanUpdates = st.Steps * int64(1+t.forceGroups)
	st.GateEMA = t.lane.GateEMA()
	st.PResidentBytes = t.pBytes.Load()
	t.lane.AddTo(&st)
	st.DeriveRatios()
	if s := t.lane.Snapshot(); s != nil {
		st.SnapshotStep = s.Step
		st.SnapshotAgeMs = time.Since(s.Published).Milliseconds()
	}
	return st
}
