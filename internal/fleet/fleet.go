package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"fekf/internal/cluster"
	"fekf/internal/cluster/tcptransport"
	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/guard"
	"fekf/internal/md"
	"fekf/internal/obs"
	"fekf/internal/online"
	"fekf/internal/optimize"
	"fekf/internal/pshard"
)

// ErrNoReplica is returned by Ingest when every replica is dead.
var ErrNoReplica = errors.New("fleet: no live replica")

// Config controls the fleet.
type Config struct {
	// Replicas is the number of model replicas (minimum 1).
	Replicas int
	// ShardPolicy selects how ingest frames are partitioned.
	ShardPolicy ShardPolicy
	// PShard shards the Kalman covariance P across the replicas instead of
	// replicating it: each replica holds only its assigned row slabs (see
	// internal/pshard), the per-step P·g fragments are exchanged over the
	// ring, and the weights stay bitwise identical to the replicated fleet.
	// Use it when P does not fit one host; the per-replica resident P drops
	// to ~1/R of the replicated footprint at the cost of one extra
	// allgather per measurement update.
	PShard bool
	// pshardResume carries a sharded covariance checkpoint from Resume
	// into New, so the initial shard states restore instead of starting
	// from the identity prior.
	pshardResume *pshard.Checkpoint
	// BatchSize is the per-replica minibatch drawn from each replica's
	// replay buffer per lockstep step; the global batch is the union.
	BatchSize int
	// QueueSize and QueuePolicy bound each per-shard ingest queue.
	QueueSize   int
	QueuePolicy online.Policy
	// WindowSize and ReservoirSize size each replica's replay buffer.
	WindowSize, ReservoirSize int
	// MinFrames is the fleet-total replay population required before
	// stepping starts (defaults to BatchSize).
	MinFrames int
	// SnapshotEvery publishes fresh per-replica snapshots every that many
	// steps (default 8; initial snapshots are published at Start).
	SnapshotEvery int
	// CheckpointPath, with CheckpointEvery > 0, receives a crash-safe
	// fleet checkpoint every CheckpointEvery steps and a final one at Stop.
	CheckpointPath  string
	CheckpointEvery int
	// CheckpointKeep > 0 turns CheckpointPath into a checksummed retention
	// ring: each write lands as a CRC32-C framed generation
	// (ckpt.000017.gob style) and the last CheckpointKeep generations are
	// retained, giving the divergence guard healthy states to roll the
	// whole fleet back to.  0 keeps the legacy single-file behaviour.
	CheckpointKeep int
	// Guard, when Enabled, runs the numerical health sentinel on the
	// conductor after every lockstep step (λ bounds, sampled weight /
	// P-diagonal finiteness and blow-up thresholds); a divergence rolls
	// every replica — and the covariance shards under PShard — back to the
	// newest valid checkpoint generation bitwise.
	Guard guard.SentinelConfig
	// StepTimeout, when > 0, arms a watchdog on every collective step: if
	// the step has not completed within the deadline (measured on Clock),
	// the conductor aborts the stuck rank's transport, which maps the hang
	// onto the existing ring-broken → replica-death → reconcile path.
	StepTimeout time.Duration
	// Chaos deterministically injects faults (weight poison at step k, a
	// rank hung at step k) to drive the guard's recovery paths under test.
	// A configured hang requires StepTimeout > 0.
	Chaos guard.ChaosConfig
	// Gate configures per-replica uncertainty gating.
	Gate online.GateConfig
	// TrainIdle keeps stepping on the replay buffers while no new frames
	// arrive.
	TrainIdle bool
	// PollInterval is the conductor's idle wait (default 10ms).
	PollInterval time.Duration
	// Seed drives replay sampling; replica i uses Seed+i.
	Seed int64
	// OnStep, if non-nil, runs on the conductor after every fleet step.
	OnStep func(step int64, info optimize.StepInfo)
	// Transport selects the ring wire: "" or "chan" for the in-process
	// channel transport, "tcp" for TCP loopback sockets (same schedule,
	// bitwise-identical reductions, real deadlines/reconnects/failure
	// detection).
	Transport string
	// RingFactory, when non-nil, overrides Transport and builds each ring
	// outright — the fault-injection tests use it to wrap transports with
	// deterministic drop/delay/sever rules.
	RingFactory func(size int) (*cluster.Ring, error)
	// Clock supplies time to the conductor: snapshot provenance, the idle
	// wait, step-latency measurement and autoscaler cooldowns.  Nil means
	// the system clock; tests inject clocktest.Clock for determinism.
	Clock Clock
	// Autoscale, when Enabled, lets the conductor grow and shrink the
	// live replica count between Autoscale.Min and Autoscale.Max from
	// measured queue pressure.  The fleet then allocates
	// max(Autoscale.Max, Replicas) slots up front and starts with
	// Replicas (clamped into the band) of them live.
	Autoscale AutoscaleConfig
	// Metrics, when non-nil, receives step/checkpoint latency and
	// membership/autoscale event counts (see NewMetrics).
	Metrics *Metrics
	// Trace, when non-nil, records per-step phase timelines — conductor
	// phases plus every rank's backward/allreduce/gain/drain spans — into
	// the ring served at /v1/trace.
	Trace *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Replicas < 1 {
		c.Replicas = 1
	}
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
	if c.MinFrames < 1 {
		c.MinFrames = c.BatchSize
	}
	if c.SnapshotEvery < 1 {
		c.SnapshotEvery = 8
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 10 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = SystemClock
	}
	return c
}

// Fleet couples N online-trainer replicas through a ring: sharded ingest,
// funnel-aggregated lockstep steps keeping every replica's weights and P
// bitwise identical, a snapshot router for predictions, and kill / rejoin
// with checkpoint catch-up.  One conductor goroutine owns all training
// state; ingest, routing and stats are safe from any goroutine.
type Fleet struct {
	cfg     Config
	system  string
	species []md.Species
	naPer   atomic.Int64

	reps   []*replica
	router *Router
	clock  Clock

	// rec accumulates the phase spans of the upcoming lockstep step
	// (ingest/gate activity between steps is attributed to the step it
	// feeds).  Owned by the conductor; nil when tracing is off.
	rec *obs.StepRecorder

	// autoscaler state: the controller itself (nil when disabled), the
	// conductor-owned evaluation bookkeeping, and the mirrored
	// step-latency EMA the sampler and stats read.
	scaler      *Autoscaler
	lastEval    time.Time // conductor-owned
	peakOcc     float64   // conductor-owned: peak occupancy since lastEval
	stepLatBits atomic.Uint64

	// ring over the live replicas, re-formed when membership changes;
	// retired rings' accounting accumulates into the retired counters.
	ring        atomic.Pointer[cluster.Ring]
	ringIDs     []int // conductor-owned: replica id per ring rank
	ringEpoch   int64 // conductor-owned: rings formed so far (ring ids)
	retiredWire atomic.Int64
	retiredOps  atomic.Int64
	retiredMu   sync.Mutex
	retiredTr   cluster.TransportStats

	// sharded-covariance state (PShard mode; all conductor-owned except
	// the pstats mirror): the fixed block structure, the per-slot shard
	// states (nil for slots holding no shards), the installed assignment
	// and the live set it was built for.
	pblocks  []optimize.Block
	pstates  []*pshard.State
	passign  pshard.Assignment
	pliveIDs []int
	pstats   atomic.Pointer[PShardStats]

	rr atomic.Uint64 // round-robin shard cursor

	// self-healing state: the checksummed checkpoint ring (nil without
	// CheckpointKeep), the numerical sentinel (nil unless Guard.Enabled),
	// the always-present health ledger, and the conductor-owned one-shot
	// flags for the chaos injectors.
	ckRing    *guard.Ring
	sentinel  *guard.Sentinel
	health    *guard.Health
	poisoned  bool // conductor-owned: chaos weight poison fired
	hangFired bool // conductor-owned: chaos rank hang fired

	steps      atomic.Int64
	lambdaBits atomic.Uint64
	wDriftBits atomic.Uint64
	pDriftBits atomic.Uint64
	ckWrites   atomic.Int64
	lastErr    atomic.Pointer[string]

	// forceGroups is the optimizer's force-group count, cached at build
	// time: it is invariant for the fleet's lifetime, and reading it off a
	// live replica's optimizer would race with a guard rollback swapping
	// that optimizer out (Stats runs from any goroutine).
	forceGroups int

	// failStep, when non-nil, injects a per-replica failure into a step
	// (after the environment build); the failure-path tests use it to
	// prove a crashing replica cannot make the survivors diverge.
	failStep func(id int, step int64) error

	ctl      chan func()
	stop     chan struct{}
	loopDone chan struct{}
	started  atomic.Bool
	stopOnce sync.Once
}

// New builds a fleet of cfg.Replicas replicas cloned from an initialized
// model and a prototype FEKF optimizer (its hyper-parameters — and Kalman
// state, if any — are replicated bitwise).  proto supplies the system name
// and species table every streamed frame must match.
func New(m *deepmd.Model, opt *optimize.FEKF, proto *dataset.Dataset, cfg Config) (*Fleet, error) {
	if m == nil || opt == nil {
		return nil, fmt.Errorf("fleet: New needs a model and an optimizer")
	}
	if proto == nil || len(proto.Species) == 0 {
		return nil, fmt.Errorf("fleet: New needs a prototype dataset with a species table")
	}
	if len(proto.Species) != m.Cfg.NumSpecies {
		return nil, fmt.Errorf("fleet: prototype has %d species, model wants %d", len(proto.Species), m.Cfg.NumSpecies)
	}
	cfg = cfg.withDefaults()
	if cfg.Chaos.HangStep > 0 && cfg.StepTimeout <= 0 {
		return nil, fmt.Errorf("fleet: a chaos hang needs StepTimeout > 0 to be recoverable")
	}
	f := &Fleet{
		cfg:     cfg,
		system:  proto.System,
		species: proto.Species,
		clock:   cfg.Clock,

		ctl:      make(chan func()),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	// With autoscaling, every slot the controller may ever grow into is
	// allocated up front (replicas are cheap clones of one model); slots
	// beyond the initial live count start dead and are revived through
	// the checkpoint catch-up path when pressure demands them.
	slots, live := cfg.Replicas, cfg.Replicas
	if cfg.Autoscale.Enabled {
		scaler, err := NewAutoscaler(cfg.Autoscale, cfg.Replicas, cfg.Clock)
		if err != nil {
			return nil, err
		}
		f.scaler = scaler
		ac := scaler.Config()
		if ac.Max > slots {
			slots = ac.Max
		}
		if live < ac.Min {
			live = ac.Min
		}
		if live > ac.Max {
			live = ac.Max
		}
	}
	for i := 0; i < slots; i++ {
		r, err := newReplica(i, m, opt, cfg)
		if err != nil {
			return nil, err
		}
		r.alive.Store(i < live)
		f.reps = append(f.reps, r)
	}
	if cfg.CheckpointPath != "" && cfg.CheckpointKeep > 0 {
		f.ckRing = guard.NewRing(cfg.CheckpointPath, cfg.CheckpointKeep)
	}
	if cfg.Guard.Enabled {
		f.sentinel = guard.NewSentinel(cfg.Guard)
	}
	f.health = guard.NewHealth(0)
	f.router = &Router{f: f}
	if proto.Len() > 0 {
		f.naPer.Store(int64(proto.Snapshots[0].NumAtoms()))
	}
	f.lambdaBits.Store(math.Float64bits(f.reps[0].opt.Lambda()))
	f.forceGroups = f.reps[0].opt.ForceGroups
	if cfg.PShard {
		if err := f.initShards(m, opt, f.liveIDs()); err != nil {
			return nil, err
		}
		f.storeLambda(f.liveIDs())
	}
	return f, nil
}

// Species returns the species table frames and predictions must use.
func (f *Fleet) Species() []md.Species { return f.species }

// System returns the physical system name.
func (f *Fleet) System() string { return f.system }

// NumAtoms returns the per-frame atom count the fleet is locked to, or 0
// before the first frame fixes it.
func (f *Fleet) NumAtoms() int { return int(f.naPer.Load()) }

// Replicas returns the configured replica count.
func (f *Fleet) Replicas() int { return len(f.reps) }

// Router returns the predict-tier snapshot router.
func (f *Fleet) Router() *Router { return f.router }

// Steps returns the number of completed lockstep steps.
func (f *Fleet) Steps() int64 { return f.steps.Load() }

// liveIDs returns the ids of the live replicas, in id order.
func (f *Fleet) liveIDs() []int {
	ids := make([]int, 0, len(f.reps))
	for _, r := range f.reps {
		if r.alive.Load() {
			ids = append(ids, r.id)
		}
	}
	return ids
}

// Ingest validates one labelled frame, shards it to a live replica's queue
// and reports whether it was accepted (false without error means dropped
// by queue policy).  Safe from any goroutine.
func (f *Fleet) Ingest(s dataset.Snapshot) (bool, error) {
	if err := online.ValidateFrame(&s, f.species, int(f.naPer.Load())); err != nil {
		return false, err
	}
	f.naPer.CompareAndSwap(0, int64(s.NumAtoms()))
	id := f.shardOf(&s)
	if id < 0 {
		return false, ErrNoReplica
	}
	return f.reps[id].queue.Push(s)
}

// Snapshot returns a model snapshot through the predict router: the next
// healthy replica in rotation, falling back to the freshest published
// snapshot when no replica is healthy.  Never nil after Start.
func (f *Fleet) Snapshot() *online.ModelSnapshot { return f.router.Snapshot() }

// Start publishes the initial snapshots and launches the conductor.
func (f *Fleet) Start() {
	if !f.started.CompareAndSwap(false, true) {
		return
	}
	step := f.steps.Load()
	for _, r := range f.reps {
		if r.alive.Load() {
			r.publish(step)
		}
	}
	go f.loop()
}

// Stop shuts the fleet down gracefully: the shard queues close (rejecting
// new frames), the conductor finishes its in-flight step and drains the
// live replicas' backlogs through their gates, final snapshots are
// published and — when CheckpointPath is set — a final fleet checkpoint
// written.  ctx bounds the wait.
func (f *Fleet) Stop(ctx context.Context) error {
	if !f.started.Load() {
		return fmt.Errorf("fleet: Stop before Start")
	}
	f.stopOnce.Do(func() {
		for _, r := range f.reps {
			r.queue.Close()
		}
		close(f.stop)
	})
	select {
	case <-f.loopDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	// The conductor has exited: this goroutine now owns the state.
	f.retireRing() // release transport sockets/goroutines; stats accumulate
	step := f.steps.Load()
	for _, r := range f.reps {
		if r.alive.Load() {
			r.publish(step)
		}
	}
	if f.cfg.CheckpointPath != "" {
		return f.WriteCheckpoint(f.cfg.CheckpointPath)
	}
	return nil
}

// do runs fn with exclusive ownership of the training state: on the
// conductor between steps while the loop runs, inline otherwise.
func (f *Fleet) do(ctx context.Context, fn func() error) error {
	if !f.started.Load() {
		return fn()
	}
	reply := make(chan error, 1)
	select {
	case f.ctl <- func() { reply <- fn() }:
	case <-f.loopDone:
		return fn()
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-reply:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Kill marks a replica dead: the sharder and the predict router stop
// routing to it, and the next step re-forms the ring over the survivors.
// Frames already queued on its shard stay buffered for catch-up at rejoin.
// In-flight predictions served from its snapshot complete normally
// (snapshots are immutable).
func (f *Fleet) Kill(ctx context.Context, id int) error {
	return f.do(ctx, func() error { return f.killLocked(id) })
}

// killLocked is Kill's body: it requires exclusive ownership of the
// training state (conductor, or pre-Start/post-Stop).
func (f *Fleet) killLocked(id int) error {
	if id < 0 || id >= len(f.reps) {
		return fmt.Errorf("fleet: no replica %d", id)
	}
	if !f.reps[id].alive.Load() {
		return fmt.Errorf("fleet: replica %d is already dead", id)
	}
	f.reps[id].alive.Store(false)
	if m := f.cfg.Metrics; m != nil {
		m.Kills.Inc()
	}
	return nil
}

// Revive rejoins a dead replica through checkpoint catch-up: the shared
// state (model weights + full Kalman filter) is checkpointed from a live
// survivor and restored into the replica, which therefore rejoins bitwise
// identical — drift is exactly zero again — and then drains its backlog
// queue on the next conductor pass.
func (f *Fleet) Revive(ctx context.Context, id int) error {
	return f.do(ctx, func() error { return f.reviveLocked(id) })
}

// reviveLocked is Revive's body: it requires exclusive ownership of the
// training state (conductor, or pre-Start/post-Stop).
func (f *Fleet) reviveLocked(id int) error {
	if id < 0 || id >= len(f.reps) {
		return fmt.Errorf("fleet: no replica %d", id)
	}
	r := f.reps[id]
	if r.alive.Load() {
		return fmt.Errorf("fleet: replica %d is already live", id)
	}
	live := f.liveIDs()
	if len(live) == 0 {
		return fmt.Errorf("fleet: no live replica to catch up from")
	}
	src := f.reps[live[0]]
	modelBytes, err := encodeModel(src.model)
	if err != nil {
		return fmt.Errorf("fleet: checkpoint survivor %d: %w", src.id, err)
	}
	if err := r.restoreShared(modelBytes, src.opt.Checkpoint()); err != nil {
		return err
	}
	r.alive.Store(true)
	r.publish(f.steps.Load())
	if m := f.cfg.Metrics; m != nil {
		m.Revives.Inc()
	}
	return nil
}

// CheckpointNow asks the conductor to write a fleet checkpoint to
// CheckpointPath between steps and waits for the result.
func (f *Fleet) CheckpointNow(ctx context.Context) error {
	if f.cfg.CheckpointPath == "" {
		return fmt.Errorf("fleet: no CheckpointPath configured")
	}
	return f.do(ctx, func() error { return f.writeCheckpointCounted(f.cfg.CheckpointPath) })
}

// loop is the conductor: observe pressure → drain shards → gate → replay
// → autoscale → lockstep step → publish, with control requests (kill /
// revive / checkpoint) executed between steps.
func (f *Fleet) loop() {
	defer close(f.loopDone)
	for {
		select {
		case <-f.stop:
			f.drainFinal()
			return
		case fn := <-f.ctl:
			fn()
			continue
		default:
		}
		f.notePressure() // before the drain empties the queues
		got := f.drainAll()
		f.maybeAutoscale()
		ready := f.replayTotal() >= f.cfg.MinFrames
		if got == 0 && !(f.cfg.TrainIdle && ready) {
			select {
			case <-f.stop:
				f.drainFinal()
				return
			case fn := <-f.ctl:
				fn()
			case <-f.clock.After(f.cfg.PollInterval):
			}
			continue
		}
		if ready && (got > 0 || f.cfg.TrainIdle) {
			f.step()
		}
	}
}

// notePressure records the peak per-replica queue occupancy since the
// last autoscaler evaluation.  It runs at the top of every conductor
// iteration — before drainAll empties the queues — so a burst absorbed
// between two evaluations still registers as pressure.  Conductor only.
func (f *Fleet) notePressure() {
	if f.scaler == nil {
		return
	}
	for _, r := range f.reps {
		if !r.alive.Load() {
			continue
		}
		if occ := r.queue.Occupancy(); occ > f.peakOcc {
			f.peakOcc = occ
		}
	}
}

// maybeAutoscale runs one autoscaler evaluation when the control interval
// has elapsed, and applies the decision through the same membership paths
// Kill and Revive use — the next step re-forms the ring over the new live
// set and the drift invariants are refreshed as usual.  Conductor only.
func (f *Fleet) maybeAutoscale() {
	if f.scaler == nil {
		return
	}
	now := f.clock.Now()
	if !f.lastEval.IsZero() && now.Sub(f.lastEval) < f.scaler.Config().Interval {
		return
	}
	f.lastEval = now
	live := f.liveIDs()
	backlog := 0
	var accepted, gated int64
	for _, r := range f.reps {
		backlog += r.queue.Depth()
		accepted += r.accepted.Load()
		gated += r.gatedOut.Load()
	}
	acceptRate := 1.0 // unscored stream: no evidence of redundancy
	if scored := accepted + gated; scored > 0 {
		acceptRate = float64(accepted) / float64(scored)
	}
	s := Sample{
		Live:           len(live),
		QueueOccupancy: f.peakOcc,
		GateAcceptRate: acceptRate,
		StepLatency:    f.stepLatency(),
		Backlog:        backlog,
	}
	if f.cfg.PShard && f.passign.Ranks > 0 {
		// Shard-reassignment cost of the candidate transitions: growing or
		// shrinking the fleet repartitions P, and the controller charges
		// the modeled transfer time against its cooldowns.
		if len(live) < len(f.reps) && len(live) > 0 {
			s.ReassignBytesUp = pshard.ReassignBytes(f.passign, pshard.Partition(f.pblocks, len(live)+1))
		}
		if len(live) > 1 {
			s.ReassignBytesDown = pshard.ReassignBytes(f.passign, pshard.Partition(f.pblocks, len(live)-1))
		}
	}
	f.peakOcc = 0
	v := f.scaler.Evaluate(s)
	if m := f.cfg.Metrics; m != nil {
		m.AutoscaleEvals.Inc()
	}
	switch v.Decision {
	case ScaleUp:
		if m := f.cfg.Metrics; m != nil {
			m.ScaleUps.Inc()
		}
		f.scaleUp(live)
	case ScaleDown:
		if m := f.cfg.Metrics; m != nil {
			m.ScaleDowns.Inc()
		}
		f.scaleDown(live)
	}
}

// scaleUp revives the lowest dead slot through the checkpoint catch-up
// path, so the new replica joins bitwise identical to the survivors.
// Conductor only.
func (f *Fleet) scaleUp(live []int) {
	for _, r := range f.reps {
		if r.alive.Load() {
			continue
		}
		if err := f.reviveLocked(r.id); err != nil {
			f.setErr(fmt.Errorf("fleet: autoscale up replica %d: %w", r.id, err))
		}
		return
	}
	f.setErr(fmt.Errorf("fleet: autoscale up: no dead slot among %d", len(f.reps)))
}

// scaleDown kills the highest live slot and gracefully drains it: frames
// still queued on its shard are re-admitted through the surviving
// replicas' gates, so an accepted burst is never lost to a resize.
// Conductor only.
func (f *Fleet) scaleDown(live []int) {
	if len(live) == 0 {
		return
	}
	id := live[len(live)-1]
	if err := f.killLocked(id); err != nil {
		f.setErr(fmt.Errorf("fleet: autoscale down replica %d: %w", id, err))
		return
	}
	victim := f.reps[id]
	for {
		s, ok := victim.queue.Pop(0)
		if !ok {
			break
		}
		if tid := f.shardOf(&s); tid >= 0 {
			f.admit(f.reps[tid], s)
		}
	}
}

// stepLatency returns the EMA of recent lockstep wall times.
func (f *Fleet) stepLatency() time.Duration {
	return time.Duration(math.Float64frombits(f.stepLatBits.Load()))
}

// drainAll moves every queued frame of every live replica through its gate
// into its replay buffer, returning the number of frames drained.  Dead
// replicas' queues are redistributed to the live shards: a frame can race
// into a replica's queue around its death (shardOf reads liveness before
// Push), and without redistribution it would strand there — blocking its
// producer on a full queue — until Revive.
func (f *Fleet) drainAll() int {
	got := 0
	for _, r := range f.reps {
		if !r.alive.Load() {
			for {
				s, ok := r.queue.Pop(0)
				if !ok {
					break
				}
				if tid := f.shardOf(&s); tid >= 0 {
					f.admit(f.reps[tid], s)
					got++
				}
			}
			continue
		}
		for {
			s, ok := r.queue.Pop(0)
			if !ok {
				break
			}
			f.admit(r, s)
			got++
		}
	}
	return got
}

// drainFinal is the graceful-stop drain: everything still queued on live
// shards flows into the replay buffers so the final checkpoint sees it.
func (f *Fleet) drainFinal() { f.drainAll() }

// replayTotal sums the live replicas' replay populations.
func (f *Fleet) replayTotal() int {
	total := 0
	for _, r := range f.reps {
		if r.alive.Load() {
			total += r.replay.Len()
		}
	}
	return total
}

// ensureRing returns the collective ring over the given live set,
// re-forming it (and retiring the old ring's accounting) when membership
// changed since the last step.
func (f *Fleet) ensureRing(live []int) (*cluster.Ring, error) {
	ring := f.ring.Load()
	if ring != nil && equalIDs(f.ringIDs, live) {
		return ring, nil
	}
	f.retireRing()
	ring, err := f.newRing(len(live))
	if err != nil {
		return nil, err
	}
	f.ringIDs = append(f.ringIDs[:0], live...)
	f.ring.Store(ring)
	return ring, nil
}

// newRing builds a ring for size ranks over the configured transport.
func (f *Fleet) newRing(size int) (*cluster.Ring, error) {
	f.ringEpoch++
	if f.cfg.RingFactory != nil {
		return f.cfg.RingFactory(size)
	}
	switch f.cfg.Transport {
	case "", "chan":
		return cluster.NewRing(size, cluster.RoCE25()), nil
	case "tcp":
		g, err := tcptransport.NewLoopbackGroup(size, tcptransport.Options{
			RingID: fmt.Sprintf("fleet-%s-epoch%d", f.system, f.ringEpoch),
		})
		if err != nil {
			return nil, err
		}
		return cluster.NewRingOver(g, cluster.RoCE25()), nil
	default:
		return nil, fmt.Errorf("fleet: unknown transport %q", f.cfg.Transport)
	}
}

// retireRing folds the current ring's modeled and measured accounting into
// the retired counters and releases its transport.  Conductor only.
func (f *Fleet) retireRing() {
	ring := f.ring.Swap(nil)
	if ring == nil {
		return
	}
	f.retiredWire.Add(ring.WireBytes())
	f.retiredOps.Add(ring.Ops())
	st := ring.TransportStats()
	f.retiredMu.Lock()
	f.retiredTr.Add(st)
	f.retiredMu.Unlock()
	ring.Close()
	f.ringIDs = f.ringIDs[:0]
}

// recoverRing handles a hard mid-step transport failure: the transport's
// dead ranks map through ringIDs onto replica deaths, the broken ring is
// retired, and every surviving replica is reconciled bitwise from the
// first survivor's model + Kalman checkpoint — the same catch-up path
// Revive uses — so the drift gauges read exactly zero again.  It returns
// the surviving live set.  Conductor only.
func (f *Fleet) recoverRing(ring *cluster.Ring, cause error) []int {
	for _, rank := range ring.Transport().Dead() {
		if rank >= 0 && rank < len(f.ringIDs) {
			if f.reps[f.ringIDs[rank]].alive.Swap(false) {
				if m := f.cfg.Metrics; m != nil {
					m.Kills.Inc()
				}
			}
		}
	}
	f.retireRing()
	survivors := f.liveIDs()
	if len(survivors) == 0 {
		f.setErr(fmt.Errorf("fleet: ring broken with no survivors: %w", cause))
		return survivors
	}
	src := f.reps[survivors[0]]
	modelBytes, err := encodeModel(src.model)
	if err != nil {
		f.setErr(fmt.Errorf("fleet: checkpoint survivor %d: %w", src.id, err))
		return survivors
	}
	ck := src.opt.Checkpoint()
	for _, id := range survivors[1:] {
		if err := f.reps[id].restoreShared(modelBytes, ck); err != nil {
			f.setErr(fmt.Errorf("fleet: reconcile replica %d: %w", id, err))
		}
	}
	step := f.steps.Load()
	for _, id := range survivors {
		f.reps[id].publish(step)
	}
	return survivors
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// step runs one lockstep fleet iteration: every live replica samples a
// private minibatch from its own replay buffer, all ranks funnel-aggregate
// gradients and ABE over the ring, and every rank applies the identical
// reduced Kalman update — so weights and P stay bitwise identical across
// the fleet (asserted by the drift invariants it refreshes afterwards).
// Conductor goroutine only.
func (f *Fleet) step() {
	live := f.liveIDs()
	if len(live) == 0 {
		return
	}
	if f.cfg.Trace != nil && f.rec == nil {
		f.rec = f.cfg.Trace.Begin()
	}
	rec := f.rec
	type share struct {
		ds  *dataset.Dataset
		idx []int
	}
	shares := make([]share, len(live))
	total := 0
	na := int(f.naPer.Load())
	s0 := time.Now()
	for k, id := range live {
		batch := f.reps[id].replay.Sample(f.cfg.BatchSize)
		if len(batch) == 0 {
			continue // empty replica: zero-partial contribution
		}
		idx := make([]int, len(batch))
		for i := range idx {
			idx[i] = i
		}
		shares[k] = share{
			ds:  &dataset.Dataset{System: f.system, Species: f.species, Snapshots: batch},
			idx: idx,
		}
		total += len(batch)
		if na == 0 {
			na = batch[0].NumAtoms()
		}
	}
	rec.Span(-1, "sample", s0, time.Since(s0))
	if total == 0 {
		return
	}
	ring, err := f.ensureRing(live)
	if err != nil {
		f.setErr(fmt.Errorf("fleet: form ring: %w", err))
		return
	}
	if f.cfg.PShard {
		// Repartition lazily, exactly when the ring re-forms over a new
		// live set: a killed victim's slabs migrate to the survivors, a
		// revived replica receives its share — all bitwise through the
		// in-memory sharded checkpoint.
		if err := f.ensureShards(live); err != nil {
			f.setErr(err)
			return
		}
	}
	params := f.reps[live[0]].opt.StepParams(total, na)
	if rec != nil {
		params.Spans = rec
	}
	stepNo := f.steps.Load()
	t0 := f.clock.Now()

	// Chaos hang: at the configured step, one rank parks before entering
	// the collective until the watchdog fires and releases it.  One-shot,
	// so the re-run after recovery proceeds clean.
	var hangCh chan struct{}
	hangID := -1
	if c := f.cfg.Chaos; c.HangStep > 0 && !f.hangFired && stepNo+1 == c.HangStep {
		f.hangFired = true
		hangID = c.HangReplica
		hangCh = make(chan struct{})
	}

	var wg sync.WaitGroup
	errs := make([]error, len(live))
	infos := make([]optimize.StepInfo, len(live))
	// progress per rank: 0 = pre-collective, 1 = in the collective,
	// 2 = done.  The watchdog attributes the stall to the least-advanced
	// rank: one wedged before the collective is the cause, the ranks
	// blocked inside it are its victims.
	progress := make([]atomic.Int32, len(live))
	for k, id := range live {
		wg.Add(1)
		go func(rank, id int, cov optimize.Covariance) {
			defer wg.Done()
			inject := f.buildInject(id, stepNo, hangID, hangCh, &progress[rank])
			infos[rank], errs[rank] = optimize.RankStep(ring, rank, f.reps[id].model, cov, params,
				shares[rank].ds, shares[rank].idx, inject)
			progress[rank].Store(2)
		}(k, id, f.covariance(id, ring))
	}
	f.awaitStep(&wg, ring, live, stepNo, progress, hangCh)

	n := f.steps.Add(1)
	f.storeLambda(live)
	if err := errors.Join(errs...); err != nil {
		f.setErr(fmt.Errorf("step %d: %w", n, err))
		if errors.Is(err, cluster.ErrRingBroken) {
			// Hard transport failure: some ranks may have finished the
			// step while others aborted mid-collective, so the replicas
			// are not merely stale but divergent — reconcile the
			// survivors bitwise and retire the broken ring.
			live = f.recoverRing(ring, err)
			if f.cfg.PShard {
				f.recoverShards(live)
			}
			if len(live) == 0 {
				return
			}
			f.storeLambda(live)
		}
	}
	f.maybePoison(n, live)
	f.updateInvariants(live)
	lat := f.clock.Now().Sub(t0)
	f.noteStepLatency(lat)
	if m := f.cfg.Metrics; m != nil {
		m.StepSeconds.Observe(lat.Seconds())
	}
	if ev := f.checkHealth(n, live, infos); ev != nil {
		// Divergence: roll the whole fleet back to the newest valid
		// checkpoint generation before anything downstream (snapshot
		// publish, checkpoint write, OnStep) can observe or persist the
		// poisoned state.
		f.handleDivergence(ev, rec)
		rec.End(n)
		f.rec = nil
		return
	}
	if f.cfg.OnStep != nil {
		f.cfg.OnStep(n, infos[0])
	}
	if n%int64(f.cfg.SnapshotEvery) == 0 {
		p0 := time.Now()
		for _, id := range live {
			f.reps[id].publish(n)
		}
		rec.Span(-1, "snapshot_publish", p0, time.Since(p0))
	}
	if f.cfg.CheckpointEvery > 0 && f.cfg.CheckpointPath != "" && n%int64(f.cfg.CheckpointEvery) == 0 {
		c0 := time.Now()
		if err := f.writeCheckpointCounted(f.cfg.CheckpointPath); err != nil {
			f.setErr(fmt.Errorf("checkpoint: %w", err))
		}
		rec.Span(-1, "checkpoint", c0, time.Since(c0))
	}
	rec.End(n)
	f.rec = nil
}

// updateInvariants refreshes the fleet's consistency gauges: the maximum
// absolute weight difference and P difference between the first live
// replica and every other live replica.  Both must be exactly zero under
// the funnel-aggregated schedule.  In pshard mode the P gauge reports the
// replicated scalar filter state's drift instead (the slabs are disjoint,
// see shardDrift), and the per-replica resident-P mirrors are refreshed.
func (f *Fleet) updateInvariants(live []int) {
	ref := f.reps[live[0]]
	refW := ref.model.Params.FlattenValues()
	wd, pd := 0.0, 0.0
	for _, id := range live[1:] {
		w := f.reps[id].model.Params.FlattenValues()
		for i := range w {
			if d := math.Abs(w[i] - refW[i]); d > wd {
				wd = d
			}
		}
		if !f.cfg.PShard {
			if d := ref.opt.State().PDrift(f.reps[id].opt.State()); d > pd {
				pd = d
			}
		}
	}
	if f.cfg.PShard {
		pd = f.shardDrift(live)
	}
	for _, id := range live {
		r := f.reps[id]
		if f.cfg.PShard {
			if st := f.pstates[id]; st != nil {
				r.pBytes.Store(st.PBytes())
			}
		} else {
			r.pBytes.Store(r.opt.PBytes())
		}
	}
	f.wDriftBits.Store(math.Float64bits(wd))
	f.pDriftBits.Store(math.Float64bits(pd))
}

// noteStepLatency folds one lockstep wall time into the mirrored EMA the
// autoscaler samples (α = 0.2; the first measurement seeds the EMA).
func (f *Fleet) noteStepLatency(lat time.Duration) {
	prev := math.Float64frombits(f.stepLatBits.Load())
	ema := float64(lat)
	if prev > 0 {
		ema = 0.8*prev + 0.2*float64(lat)
	}
	f.stepLatBits.Store(math.Float64bits(ema))
}

// WeightDrift returns the last step's maximum absolute weight difference
// between live replicas (exactly 0 under the fleet invariant).
func (f *Fleet) WeightDrift() float64 { return math.Float64frombits(f.wDriftBits.Load()) }

// PDrift returns the last step's maximum absolute covariance difference
// between live replicas (exactly 0 under the fleet invariant).
func (f *Fleet) PDrift() float64 { return math.Float64frombits(f.pDriftBits.Load()) }

func (f *Fleet) setErr(err error) {
	s := err.Error()
	f.lastErr.Store(&s)
}

// ReplicaStats is one replica's row in the fleet stats.
type ReplicaStats struct {
	ID             int     `json:"id"`
	Alive          bool    `json:"alive"`
	QueueDepth     int     `json:"queue_depth"`
	QueueCapacity  int     `json:"queue_capacity"`
	FramesQueued   int64   `json:"frames_queued"`
	FramesDropped  int64   `json:"frames_dropped"`
	FramesAccepted int64   `json:"frames_accepted"`
	FramesGatedOut int64   `json:"frames_gated_out"`
	ReplaySize     int64   `json:"replay_size"`
	GateEMA        float64 `json:"gate_ema"`
	SnapshotStep   int64   `json:"snapshot_step"`
	SnapshotAgeMs  int64   `json:"snapshot_age_ms"`
	PredictsRouted int64   `json:"predicts_routed"`
	// PResidentBytes is the replica's resident covariance footprint: the
	// full P under replication, only the owned row slabs under pshard —
	// the same value the fekf_p_resident_bytes gauge exports.
	PResidentBytes int64 `json:"p_resident_bytes"`
}

// Stats is the fleet-level observable state served at /v1/stats.
type Stats struct {
	Replicas      int     `json:"replicas"`
	Live          int     `json:"live"`
	ShardPolicy   string  `json:"shard_policy"`
	Steps         int64   `json:"steps"`
	Lambda        float64 `json:"lambda"`
	WeightDrift   float64 `json:"weight_drift"`
	PDrift        float64 `json:"p_drift"`
	RingWireBytes int64   `json:"ring_wire_bytes"`
	RingOps       int64   `json:"ring_ops"`
	// Transport is the measured wire traffic (payload + framing, retries,
	// reconnects, detected peer failures) summed over the live ring and
	// every retired ring; RingWireBytes stays the modeled RoCE payload.
	Transport cluster.TransportStats `json:"transport"`
	// Autoscale is the queue-pressure controller row (nil when
	// autoscaling is disabled): current/target live counts, the last
	// decision with its reason, and the scale-event counters.
	Autoscale *AutoscaleStats `json:"autoscale,omitempty"`
	// PShard is the sharded-covariance row (nil for replicated fleets):
	// partition geometry, per-rank resident P bytes and the modeled
	// exchange traffic per step.
	PShard  *PShardStats   `json:"pshard,omitempty"`
	Replica []ReplicaStats `json:"replica"`
}

// FleetStats returns the per-replica view; safe from any goroutine.
func (f *Fleet) FleetStats() Stats {
	st := Stats{
		Replicas:    len(f.reps),
		ShardPolicy: f.cfg.ShardPolicy.String(),
		Steps:       f.steps.Load(),
		Lambda:      math.Float64frombits(f.lambdaBits.Load()),
		WeightDrift: f.WeightDrift(),
		PDrift:      f.PDrift(),
	}
	st.RingWireBytes = f.retiredWire.Load()
	st.RingOps = f.retiredOps.Load()
	f.retiredMu.Lock()
	st.Transport = f.retiredTr
	f.retiredMu.Unlock()
	if ring := f.ring.Load(); ring != nil {
		st.RingWireBytes += ring.WireBytes()
		st.RingOps += ring.Ops()
		st.Transport.Add(ring.TransportStats())
	}
	for _, r := range f.reps {
		rs := ReplicaStats{
			ID:             r.id,
			Alive:          r.alive.Load(),
			QueueDepth:     r.queue.Depth(),
			QueueCapacity:  r.queue.Cap(),
			FramesQueued:   r.queue.Pushed(),
			FramesDropped:  r.queue.Dropped(),
			FramesAccepted: r.accepted.Load(),
			FramesGatedOut: r.gatedOut.Load(),
			ReplaySize:     r.replayLen.Load(),
			GateEMA:        math.Float64frombits(r.gateEMA.Load()),
			PredictsRouted: r.routed.Load(),
			PResidentBytes: r.pBytes.Load(),
		}
		if s := r.snap.Load(); s != nil {
			rs.SnapshotStep = s.Step
			rs.SnapshotAgeMs = f.clock.Now().Sub(s.Published).Milliseconds()
		}
		if rs.Alive {
			st.Live++
		}
		st.Replica = append(st.Replica, rs)
	}
	if f.scaler != nil {
		st.Autoscale = f.scaler.statsRow(st.Live, f.stepLatency())
	}
	if f.cfg.PShard {
		st.PShard = f.pstats.Load()
	}
	return st
}

// Stats aggregates the fleet into the flat trainer-stats shape shared with
// the single-trainer backend; safe from any goroutine.
func (f *Fleet) Stats() online.Stats {
	st := online.Stats{
		System:        f.system,
		Steps:         f.steps.Load(),
		Lambda:        math.Float64frombits(f.lambdaBits.Load()),
		KalmanUpdates: f.steps.Load() * int64(1+f.forceGroups),
		Checkpoints:   f.ckWrites.Load(),
	}
	var emaSum float64
	var emaN int64
	for _, r := range f.reps {
		st.PResidentBytes += r.pBytes.Load()
		st.QueueDepth += r.queue.Depth()
		st.QueueCapacity += r.queue.Cap()
		st.FramesQueued += r.queue.Pushed()
		st.FramesDropped += r.queue.Dropped()
		st.FramesAccepted += r.accepted.Load()
		st.FramesGatedOut += r.gatedOut.Load()
		st.FramesSeen += r.seen.Load()
		st.ReplaySize += r.replayLen.Load()
		st.ReplayWindowLen += r.replayWin.Load()
		st.ReplayReservoirLen += r.replayRes.Load()
		st.ReplayCapacity += int64(f.cfg.WindowSize + f.cfg.ReservoirSize)
		if r.alive.Load() {
			emaSum += math.Float64frombits(r.gateEMA.Load())
			emaN++
		}
	}
	if emaN > 0 {
		st.GateEMA = emaSum / float64(emaN)
	}
	if st.ReplayCapacity > 0 {
		st.ReplayOccupancy = float64(st.ReplaySize) / float64(st.ReplayCapacity)
	}
	if st.QueueCapacity > 0 {
		st.QueueOccupancy = float64(st.QueueDepth) / float64(st.QueueCapacity)
	}
	if scored := st.FramesAccepted + st.FramesGatedOut; scored > 0 {
		st.GateAcceptRate = float64(st.FramesAccepted) / float64(scored)
	}
	if s := f.router.freshest(); s != nil {
		st.SnapshotStep = s.Step
		st.SnapshotAgeMs = f.clock.Now().Sub(s.Published).Milliseconds()
	}
	if e := f.lastErr.Load(); e != nil {
		st.LastError = *e
	}
	if f.ckRing != nil || f.sentinel != nil || f.cfg.StepTimeout > 0 {
		st.Guard = f.health.Status(f.clock.Now())
	}
	return st
}
