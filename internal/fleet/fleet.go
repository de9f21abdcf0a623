package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
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
	// replicating it: each replica owns only its pshard.Partition row slabs
	// rather than every block whole, the per-step P·g fragments are
	// exchanged over the ring, and the weights stay bitwise identical to
	// the replicated fleet.  Use it when P does not fit one host; the
	// per-replica resident P drops to ~1/R of the replicated footprint at
	// the cost of one extra allgather per measurement update.  It decides
	// only which slabs each rank owns (cov.go); Resume takes it from the
	// checkpoint.
	PShard bool
	// BatchSize is the per-replica minibatch drawn from each replica's
	// replay buffer per lockstep step; the global batch is the union.
	BatchSize int
	// QueueSize and QueuePolicy bound each per-shard ingest queue.
	QueueSize   int
	QueuePolicy online.Policy
	// WindowSize and ReservoirSize size each replica's replay buffer.
	WindowSize, ReservoirSize int
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
	// Gate configures per-replica uncertainty gating.
	Gate online.GateConfig
	// TrainIdle keeps stepping on the replay buffers while no new frames
	// arrive.
	TrainIdle bool
	// Seed drives replay sampling; replica i uses Seed+i.
	Seed int64
	// OnStep, if non-nil, runs on the conductor after every fleet step.
	OnStep func(step int64, info optimize.StepInfo)
	// Transport selects the ring wire: "" or "chan" for the in-process
	// channel transport, "tcp" for TCP loopback sockets (same schedule,
	// bitwise-identical reductions, real deadlines/reconnects/failure
	// detection).
	Transport string
	// Clock supplies time to the conductor: snapshot provenance,
	// step-latency measurement, the step watchdog, autoscaler cooldowns and
	// the autoscaler deadline of the loop's idle wait.  Nil means the
	// system clock; tests inject clocktest.Clock for determinism.
	Clock online.Clock
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
	if c.SnapshotEvery < 1 {
		c.SnapshotEvery = 8
	}
	if c.Clock == nil {
		c.Clock = online.SystemClock
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics(obs.NewRegistry()) // a private registry nobody scrapes
	}
	return c
}

// Fleet couples N online-trainer replicas through a ring: sharded ingest,
// funnel-aggregated lockstep steps keeping every replica's weights and P
// bitwise identical, a snapshot router for predictions, and kill / rejoin
// with checkpoint catch-up.  One conductor goroutine — the shared
// online.Loop — owns all training state; ingest, routing and stats are
// safe from any goroutine.
type Fleet struct {
	cfg     Config
	system  string
	species []md.Species
	cutoff  float64 // the model's Rc, which bounds every frame's box
	naPer   atomic.Int64

	reps   []*replica
	router *Router
	clock  online.Clock
	loop   *online.Loop[Checkpoint]

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

	// cov holds the Kalman covariance: one state per live replica, each
	// owning every block whole or its row-slab share.
	cov *covariance

	rr atomic.Uint64 // round-robin shard cursor

	lambdaBits atomic.Uint64
	wDriftBits atomic.Uint64
	pDriftBits atomic.Uint64

	// opt holds the filter settings every rank runs — hyper-parameters
	// only, never a Kalman state (P lives in cov).  Set once at build and
	// never replaced, so any goroutine may read it.
	opt *optimize.FEKF

	// Fault-injection seams for the package tests; nil in production.
	//
	// preCollective runs on each rank goroutine after the rank's
	// environment build and before it enters the collective of 1-based
	// step; an error makes the rank contribute zero partials.  The rank
	// counts as in the collective for the watchdog's attribution once the
	// hook calls enter or returns, so a hook that parks on ctx — cancelled
	// when the watchdog aborts the step — is the rank the watchdog blames.
	preCollective func(ctx context.Context, id int, step int64, enter func()) error
	// postStep runs on the conductor after the ranks of completed step n
	// join, before the invariants refresh and the sentinel samples.
	postStep func(n int64, live []int)
	// ringFactory builds each ring in place of cfg.Transport.
	ringFactory func(size int) (*cluster.Ring, error)
}

// New builds a fleet of cfg.Replicas replicas cloned from an initialized
// model and a prototype FEKF optimizer: its hyper-parameters become the
// fleet's filter settings, and its Kalman state, if it already stepped,
// seeds the fleet's P (else P = I).  proto supplies the system name and
// species table every streamed frame must match.
func New(m *deepmd.Model, opt *optimize.FEKF, proto *dataset.Dataset, cfg Config) (*Fleet, error) {
	f, err := build(m, opt, proto, cfg)
	if err != nil {
		return nil, err
	}
	var seed *optimize.SlabCheckpoint
	if ks := opt.State(); ks != nil {
		if seed, err = optimize.GatherSlabs([]*optimize.KalmanState{ks}); err != nil {
			return nil, err
		}
	}
	live := f.liveIDs()
	if err := f.cov.fit(seed, live, false); err != nil {
		return nil, err
	}
	f.updateInvariants(live)
	return f, nil
}

// build assembles the fleet around the prototype, without P: New seeds
// it, Resume restores it.
func build(m *deepmd.Model, opt *optimize.FEKF, proto *dataset.Dataset, cfg Config) (*Fleet, error) {
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
	f := &Fleet{
		cfg:     cfg,
		system:  proto.System,
		species: proto.Species,
		cutoff:  m.Cfg.Rc,
		clock:   cfg.Clock,
	}
	// With autoscaling, every slot the controller may ever grow into is
	// allocated up front (replicas are cheap clones of one model); slots
	// beyond the initial live count start dead and are revived through
	// the checkpoint catch-up path when pressure demands them.
	slots, live := cfg.Replicas, cfg.Replicas
	if cfg.Autoscale.Enabled {
		f.scaler = NewAutoscaler(cfg.Autoscale, cfg.Replicas, cfg.Clock)
		ac := f.scaler.Config()
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
	fopt, err := optimize.RestoreFEKF(filterConfig(opt.Checkpoint()), m)
	if err != nil {
		return nil, err
	}
	f.opt = fopt
	for i := 0; i < slots; i++ {
		r := newReplica(i, m, proto, cfg)
		r.alive.Store(i < live)
		f.reps = append(f.reps, r)
	}
	lc := online.LoopConfig{
		SnapshotEvery:   cfg.SnapshotEvery,
		CheckpointPath:  cfg.CheckpointPath,
		CheckpointEvery: cfg.CheckpointEvery,
		CheckpointKeep:  cfg.CheckpointKeep,
		Guard:           cfg.Guard,
		TrainIdle:       cfg.TrainIdle,
		OnStep:          cfg.OnStep,
		Trace:           cfg.Trace,
		Clock:           cfg.Clock,
	}
	lc.CheckpointSeconds = cfg.Metrics.CheckpointSeconds
	for _, r := range f.reps {
		lc.Queues = append(lc.Queues, r.Queue)
	}
	f.loop = online.NewLoop(online.Backend[Checkpoint]{
		Intake:  f.intake,
		Ready:   func() bool { return f.replayTotal() >= f.cfg.BatchSize },
		Step:    f.step,
		Publish: func() { f.publish(f.liveIDs(), f.loop.Steps.Load()) },
		Build:   f.buildCheckpoint,
		Apply:   f.applyCheckpoint,
	}, lc)
	f.router = &Router{f: f}
	if proto.Len() > 0 {
		f.naPer.Store(int64(proto.Snapshots[0].NumAtoms()))
	}
	f.cov = newCovariance(cfg.PShard, f.opt, f.reps, m.Params.LayerSizes())
	return f, nil
}

// Species returns the species table frames and predictions must use.
func (f *Fleet) Species() []md.Species { return f.species }

// Cutoff returns the model's neighbour cutoff, which bounds every frame's
// box.
func (f *Fleet) Cutoff() float64 { return f.cutoff }

// System returns the physical system name.
func (f *Fleet) System() string { return f.system }

// NumAtoms returns the per-frame atom count the fleet is locked to, or 0
// before the first frame fixes it.
func (f *Fleet) NumAtoms() int { return int(f.naPer.Load()) }

// Replicas returns the configured replica count.
func (f *Fleet) Replicas() int { return len(f.reps) }

// Steps returns the number of completed lockstep steps.
func (f *Fleet) Steps() int64 { return f.loop.Steps.Load() }

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
	if err := online.ValidateFrame(&s, f.species, f.cutoff, int(f.naPer.Load())); err != nil {
		return false, err
	}
	f.naPer.CompareAndSwap(0, int64(s.NumAtoms()))
	id := f.shardOf(&s)
	if id < 0 {
		return false, ErrNoReplica
	}
	ok, err := f.reps[id].Queue.Push(s)
	if ok {
		f.loop.Wake()
	}
	return ok, err
}

// Snapshot returns a model snapshot through the predict router: the next
// healthy replica in rotation, falling back to the freshest published
// snapshot when no replica is healthy.  Never nil after Start.
func (f *Fleet) Snapshot() *online.ModelSnapshot { return f.router.Snapshot() }

// Start publishes the initial snapshots and launches the conductor.
func (f *Fleet) Start() { f.loop.Start() }

// Stop shuts the fleet down gracefully: the shard queues close (rejecting
// new frames), the conductor finishes its in-flight step, drains the live
// replicas' backlogs through their gates and releases the ring, final
// snapshots are published and — when CheckpointPath is set — a final
// fleet checkpoint written.  ctx bounds the wait.
func (f *Fleet) Stop(ctx context.Context) error { return f.loop.Stop(ctx) }

// Kill marks a replica dead: the sharder and the predict router stop
// routing to it, P is refit to the survivors at once (the replica's state
// is freed; a sharded P's slabs move to the survivors), and the next step
// re-forms the ring over them.  Frames already queued on its shard stay
// buffered for catch-up at rejoin.  In-flight predictions served from its
// snapshot complete normally (snapshots are immutable).
func (f *Fleet) Kill(ctx context.Context, id int) error {
	return f.loop.Do(ctx, func() error { return f.killLocked(id) })
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
	if err := f.refit(); err != nil {
		f.reps[id].alive.Store(true)
		return err
	}
	f.cfg.Metrics.Kills.Inc()
	return nil
}

// refit fits P to the current live set after a membership change and
// refreshes the invariant gauges and mirrors.  Conductor only.
func (f *Fleet) refit() error {
	live := f.liveIDs()
	if err := f.cov.refit(live); err != nil {
		return err
	}
	if len(live) > 0 {
		f.updateInvariants(live)
	}
	return nil
}

// Revive rejoins a dead replica through checkpoint catch-up: the weights
// are checkpointed from a live survivor and restored into the replica,
// and P is refit to the new live set (a replicated P is copied into the
// replica; a sharded one is retiled), so it rejoins bitwise identical —
// drift is exactly zero again — and then drains its backlog queue on the
// next conductor pass.
func (f *Fleet) Revive(ctx context.Context, id int) error {
	return f.loop.Do(ctx, func() error { return f.reviveLocked(id) })
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
	if err := f.catchUp(live[0], []int{id}); err != nil {
		return err
	}
	r.alive.Store(true)
	if err := f.refit(); err != nil {
		r.alive.Store(false)
		return err
	}
	f.publish([]int{id}, f.loop.Steps.Load())
	f.cfg.Metrics.Revives.Inc()
	return nil
}

// intake is the conductor's Backend.Intake: observe queue pressure, drain
// every shard through its gate, run the autoscaler when its interval has
// elapsed, and ask to be woken for the next evaluation.  The stop-time
// drain skips the controller and releases the ring.
func (f *Fleet) intake(final bool) (int, time.Time) {
	if final {
		f.drainAll()
		f.retireRing() // release transport sockets/goroutines; stats accumulate
		return 0, time.Time{}
	}
	f.notePressure() // before the drain empties the queues
	got := f.drainAll()
	f.maybeAutoscale()
	if f.scaler == nil {
		return got, time.Time{}
	}
	return got, f.lastEval.Add(AutoscaleInterval)
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
		if occ := r.Queue.Occupancy(); occ > f.peakOcc {
			f.peakOcc = occ
		}
	}
}

// maybeAutoscale runs one autoscaler evaluation when the control interval
// has elapsed, and applies the decision through the same membership paths
// Kill and Revive use, which refit P at once; the next step re-forms the
// ring over the new live set.  Conductor only.
func (f *Fleet) maybeAutoscale() {
	if f.scaler == nil {
		return
	}
	now := f.clock.Now()
	if !f.lastEval.IsZero() && now.Sub(f.lastEval) < AutoscaleInterval {
		return
	}
	f.lastEval = now
	live := f.liveIDs()
	var agg online.Stats
	for _, r := range f.reps {
		r.AddTo(&agg)
	}
	agg.DeriveRatios()
	acceptRate := 1.0 // unscored stream: no evidence of redundancy
	if agg.FramesAccepted+agg.FramesGatedOut > 0 {
		acceptRate = agg.GateAcceptRate
	}
	s := Sample{
		Live:           len(live),
		QueueOccupancy: f.peakOcc,
		GateAcceptRate: acceptRate,
		StepLatency:    f.stepLatency(),
		Backlog:        agg.QueueDepth,
	}
	s.ReassignBytesUp, s.ReassignBytesDown = f.cov.reassign(live)
	f.peakOcc = 0
	v := f.scaler.Evaluate(s)
	f.cfg.Metrics.AutoscaleEvals.Inc()
	switch v.Decision {
	case ScaleUp:
		f.cfg.Metrics.ScaleUps.Inc()
		f.scaleUp(live)
	case ScaleDown:
		f.cfg.Metrics.ScaleDowns.Inc()
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
			f.loop.SetErr(fmt.Errorf("fleet: autoscale up replica %d: %w", r.id, err))
		}
		return
	}
	f.loop.SetErr(fmt.Errorf("fleet: autoscale up: no dead slot among %d", len(f.reps)))
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
		f.loop.SetErr(fmt.Errorf("fleet: autoscale down replica %d: %w", id, err))
		return
	}
	f.reshard(f.reps[id])
}

// reshard re-admits every frame queued on a dead replica's shard through
// the live shards' gates, returning the number re-admitted.  Conductor
// only.
func (f *Fleet) reshard(dead *replica) int {
	got := 0
	for {
		s, ok := dead.Queue.Pop()
		if !ok {
			return got
		}
		if tid := f.shardOf(&s); tid >= 0 {
			f.admit(f.reps[tid], s)
			got++
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
			got += f.reshard(r)
			continue
		}
		for {
			s, ok := r.Queue.Pop()
			if !ok {
				break
			}
			f.admit(r, s)
			got++
		}
	}
	return got
}

// replayTotal sums the live replicas' replay populations.
func (f *Fleet) replayTotal() int {
	total := 0
	for _, r := range f.reps {
		if r.alive.Load() {
			total += r.Replay().Len()
		}
	}
	return total
}

// ensureRing returns the collective ring over the given live set,
// re-forming it (and retiring the old ring's accounting) when membership
// changed since the last step.
func (f *Fleet) ensureRing(live []int) (*cluster.Ring, error) {
	ring := f.ring.Load()
	if ring != nil && slices.Equal(f.ringIDs, live) {
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
	if f.ringFactory != nil {
		return f.ringFactory(size)
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
// retired, every surviving replica is reconciled bitwise from the first
// survivor through the catch-up path Revive uses, and P is refit over the
// survivors — so the drift gauges read exactly zero again.  A failure that takes every rank keeps the one detected last: the
// cascade's final victim, never the stuck rank the watchdog declares
// first.  It returns the surviving live set, never empty.  Conductor only.
func (f *Fleet) recoverRing(ring *cluster.Ring) []int {
	dead := ring.Transport().Dead()
	if len(dead) >= len(f.ringIDs) {
		dead = dead[:len(dead)-1]
	}
	for _, rank := range dead {
		if rank >= 0 && rank < len(f.ringIDs) {
			if f.reps[f.ringIDs[rank]].alive.Swap(false) {
				f.cfg.Metrics.Kills.Inc()
			}
		}
	}
	f.retireRing()
	survivors := f.liveIDs()
	if err := f.catchUp(survivors[0], survivors[1:]); err != nil {
		f.loop.SetErr(fmt.Errorf("fleet: reconcile survivors: %w", err))
	}
	if err := f.cov.recover(survivors); err != nil {
		f.loop.SetErr(err)
	}
	f.publish(survivors, f.loop.Steps.Load())
	return survivors
}

// step runs one lockstep fleet iteration — the conductor's Backend.Step:
// every live replica samples a private minibatch from its own replay
// buffer, all ranks funnel-aggregate gradients and ABE over the ring, and
// every rank applies the identical reduced Kalman update — so weights and
// P stay bitwise identical across the fleet (asserted by the drift
// invariants it refreshes afterwards).  Conductor goroutine only.
func (f *Fleet) step(rec *obs.StepRecorder) (optimize.StepInfo, func() guard.Sample, bool) {
	live := f.liveIDs()
	if len(live) == 0 {
		return optimize.StepInfo{}, nil, false
	}
	type share struct {
		ds  *dataset.Dataset
		idx []int
	}
	shares := make([]share, len(live))
	total := 0
	na := int(f.naPer.Load())
	s0 := time.Now()
	for k, id := range live {
		batch := f.reps[id].Replay().Sample(f.cfg.BatchSize)
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
		return optimize.StepInfo{}, nil, false
	}
	ring, err := f.ensureRing(live)
	if err != nil {
		f.loop.SetErr(fmt.Errorf("fleet: form ring: %w", err))
		return optimize.StepInfo{}, nil, false
	}
	params := f.opt.StepParams(total, na)
	if rec != nil {
		params.Spans = rec
	}
	stepNo := f.loop.Steps.Load()
	t0 := f.clock.Now()
	ctx, release := context.WithCancel(context.Background())
	defer release()

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
			inject := f.buildInject(ctx, id, stepNo+1, &progress[rank])
			infos[rank], errs[rank] = optimize.RankStep(ring, rank, f.reps[id].model, cov, params,
				shares[rank].ds, shares[rank].idx, inject)
			progress[rank].Store(2)
		}(k, id, f.cov.over(id, ring))
	}
	f.awaitStep(&wg, ring, live, stepNo, progress, release)

	n := f.loop.Steps.Add(1)
	if err := errors.Join(errs...); err != nil {
		f.loop.SetErr(fmt.Errorf("step %d: %w", n, err))
		if errors.Is(err, cluster.ErrRingBroken) {
			// Hard transport failure: some ranks may have finished the
			// step while others aborted mid-collective, so the replicas
			// are not merely stale but divergent — reconcile the
			// survivors bitwise and retire the broken ring.
			live = f.recoverRing(ring)
		}
	}
	if f.postStep != nil {
		f.postStep(n, live)
	}
	f.updateInvariants(live)
	lat := f.clock.Now().Sub(t0)
	f.noteStepLatency(lat)
	f.cfg.Metrics.StepSeconds.Observe(lat.Seconds())
	// The sentinel's view of the post-step fleet: the first live replica
	// stands in for all (the drift invariant makes them identical).
	return infos[0], func() guard.Sample {
		return guard.Sample{
			Lambda:  math.Float64frombits(f.lambdaBits.Load()),
			Weights: f.reps[live[0]].model.Params.FlattenValues(),
			PDiag:   f.cov.diag(live[0]),
			Aux:     []float64{infos[0].EnergyABE, infos[0].ForceABE},
		}
	}, true
}

// updateInvariants refreshes the fleet's consistency gauges — the maximum
// absolute weight difference between the first live replica and every
// other live replica, and the covariance's P drift; both must be exactly
// zero under the funnel-aggregated schedule — and the mirrors the stats
// readers see: the first live replica's λ and every replica's resident P.
func (f *Fleet) updateInvariants(live []int) {
	refW := f.reps[live[0]].model.Params.FlattenValues()
	wd := 0.0
	for _, id := range live[1:] {
		w := f.reps[id].model.Params.FlattenValues()
		for i := range w {
			if d := math.Abs(w[i] - refW[i]); d > wd {
				wd = d
			}
		}
	}
	for _, r := range f.reps {
		r.pBytes.Store(f.cov.resident(r.id))
	}
	if l, ok := f.cov.lambda(live[0]); ok {
		f.lambdaBits.Store(math.Float64bits(l))
	}
	f.wDriftBits.Store(math.Float64bits(wd))
	f.pDriftBits.Store(math.Float64bits(f.cov.drift(live)))
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
		Steps:       f.loop.Steps.Load(),
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
		var ls online.Stats
		r.AddTo(&ls)
		rs := ReplicaStats{
			ID:             r.id,
			Alive:          r.alive.Load(),
			QueueDepth:     ls.QueueDepth,
			QueueCapacity:  ls.QueueCapacity,
			FramesQueued:   ls.FramesQueued,
			FramesDropped:  ls.FramesDropped,
			FramesAccepted: ls.FramesAccepted,
			FramesGatedOut: ls.FramesGatedOut,
			ReplaySize:     ls.ReplaySize,
			GateEMA:        r.GateEMA(),
			PredictsRouted: r.routed.Load(),
			PResidentBytes: r.pBytes.Load(),
		}
		if s := r.Snapshot(); s != nil {
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
	st.PShard = f.cov.row()
	return st
}

// Stats aggregates the fleet into the flat trainer-stats shape shared with
// the single-trainer backend; safe from any goroutine.
func (f *Fleet) Stats() online.Stats {
	st := f.loop.Stats()
	st.System = f.system
	st.Lambda = math.Float64frombits(f.lambdaBits.Load())
	st.KalmanUpdates = st.Steps * int64(1+f.opt.ForceGroups)
	var emaSum float64
	var emaN int64
	for _, r := range f.reps {
		st.PResidentBytes += r.pBytes.Load()
		r.AddTo(&st)
		if r.alive.Load() {
			emaSum += r.GateEMA()
			emaN++
		}
	}
	if emaN > 0 {
		st.GateEMA = emaSum / float64(emaN)
	}
	st.DeriveRatios()
	if s := f.router.freshest(); s != nil {
		st.SnapshotStep = s.Step
		st.SnapshotAgeMs = f.clock.Now().Sub(s.Published).Milliseconds()
	}
	if st.Guard == nil && f.cfg.StepTimeout > 0 {
		// the watchdog ledger reports even without a ring or sentinel
		st.Guard = f.loop.Health().Status(f.clock.Now())
	}
	return st
}
