package online

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fekf/internal/guard"
	"fekf/internal/obs"
	"fekf/internal/optimize"
)

// Backend is what one online learner plugs into the shared Loop: the
// single trainer supplies its lane and optimizer, the fleet its replicas
// and collective step.  Every hook runs with exclusive ownership of the
// training state — on the loop goroutine, or from Start/Stop while the
// loop is not running.  T is the backend's checkpoint type.
type Backend[T any] struct {
	// Intake drains queued frames through the gate into the replay
	// buffers and returns how many it admitted, plus the time by which
	// the loop must run it again even without input (zero: only when
	// input or a control request arrives).  final marks the stop-time
	// drain after the last step.
	Intake func(final bool) (admitted int, wake time.Time)
	// Ready reports whether the replay buffers hold enough frames to step.
	Ready func() bool
	// Step runs one optimizer step on a replay minibatch, advancing
	// Loop.Steps when it lands one.  ok false means no step landed: the
	// post-step tail is skipped and the open step trace carries over.
	// health is the sentinel's view of the post-step state, only called
	// when a sentinel is armed.
	Step func(rec *obs.StepRecorder) (info optimize.StepInfo, health func() guard.Sample, ok bool)
	// Publish swaps in fresh snapshots at the current step.
	Publish func()
	// Build captures a checkpoint of the training state; Apply restores
	// one in place (the divergence rollback) and returns the step it
	// rewound to.
	Build func() (*T, error)
	Apply func(*T) (int64, error)
}

// LoopConfig is the backend-independent part of an online learner's
// configuration.
type LoopConfig struct {
	// SnapshotEvery publishes every that many steps (the Start and Stop
	// publishes are unconditional).
	SnapshotEvery int
	// CheckpointPath, CheckpointEvery and CheckpointKeep schedule the
	// counted periodic checkpoints (plus the uncounted final one at Stop)
	// and size the retention ring the rollback restores from.
	CheckpointPath  string
	CheckpointEvery int
	CheckpointKeep  int
	// Guard arms the post-step health sentinel.
	Guard guard.SentinelConfig
	// TrainIdle keeps stepping on the replay buffers while no frames
	// arrive.
	TrainIdle bool
	// OnStep runs on the loop goroutine after every healthy step.
	OnStep func(step int64, info optimize.StepInfo)
	// Trace records the per-step phase timeline; CheckpointSeconds, when
	// non-nil, observes every periodic checkpoint write.
	Trace             *obs.Tracer
	CheckpointSeconds *obs.Histogram
	// Clock times the backend's wake deadline and stamps the health
	// ledger (nil: SystemClock).
	Clock Clock
	// Queues are the ingest queues Stop closes before the final drain.
	Queues []*Queue
}

// Loop is the online-learning loop, written once for the single trainer
// and the fleet conductor: intake → step → sentinel → rollback → OnStep →
// periodic publish → periodic checkpoint, with control requests run
// between steps and an idle wait that wakes on ingest, control, Stop or
// the backend's deadline — never on a poll timer.
type Loop[T any] struct {
	b      Backend[T]
	cfg    LoopConfig
	keeper *guard.Keeper

	// Steps counts completed optimizer steps.  The backend advances it in
	// Step and rewinds it when restoring a checkpoint; anyone may read it.
	Steps    atomic.Int64
	ckWrites atomic.Int64
	lastErr  atomic.Pointer[string]

	// rec accumulates the phase spans of the upcoming step (intake
	// happens between steps and is attributed to the step it feeds).
	// Loop goroutine only; nil when tracing is off.
	rec *obs.StepRecorder

	ctl      chan func()
	wake     chan struct{}
	stop     chan struct{}
	done     chan struct{}
	started  atomic.Bool
	stopOnce sync.Once
}

// NewLoop builds a loop over backend b.
func NewLoop[T any](b Backend[T], cfg LoopConfig) *Loop[T] {
	if cfg.Clock == nil {
		cfg.Clock = SystemClock
	}
	return &Loop[T]{
		b:      b,
		cfg:    cfg,
		keeper: guard.NewKeeper(cfg.CheckpointPath, cfg.CheckpointKeep, cfg.Guard, cfg.Clock.Now),
		ctl:    make(chan func()),
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start publishes the initial snapshots and launches the loop goroutine; a
// second Start is a no-op.
func (l *Loop[T]) Start() {
	if !l.started.CompareAndSwap(false, true) {
		return
	}
	l.b.Publish()
	go l.run()
}

// Stop shuts the loop down gracefully: the queues close (rejecting new
// frames), the loop finishes its in-flight step and drains everything
// still queued into the replay buffers, then final snapshots are published
// and — when CheckpointPath is set — a final, uncounted checkpoint is
// written.  ctx bounds the wait for the loop to finish.
func (l *Loop[T]) Stop(ctx context.Context) error {
	if !l.started.Load() {
		return errors.New("online: Stop before Start")
	}
	l.stopOnce.Do(func() {
		for _, q := range l.cfg.Queues {
			q.Close()
		}
		close(l.stop)
	})
	select {
	case <-l.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	// The loop has exited: this goroutine now owns the training state.
	l.b.Publish()
	if l.cfg.CheckpointPath != "" {
		return l.WriteCheckpoint(l.cfg.CheckpointPath)
	}
	return nil
}

// Do runs fn with exclusive ownership of the training state: on the loop
// goroutine between steps while it runs, inline otherwise.
func (l *Loop[T]) Do(ctx context.Context, fn func() error) error {
	if !l.started.Load() {
		return fn()
	}
	reply := make(chan error, 1)
	select {
	case l.ctl <- func() { reply <- fn() }:
	case <-l.done:
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

// Wake ends the loop's idle wait; ingest calls it after every accepted
// frame.  Safe from any goroutine and never blocks.
func (l *Loop[T]) Wake() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// run is the loop goroutine.
func (l *Loop[T]) run() {
	defer close(l.done)
	for {
		select {
		case <-l.stop:
			l.b.Intake(true)
			return
		case fn := <-l.ctl:
			fn()
			continue
		default:
		}
		got, at := l.b.Intake(false)
		if l.b.Ready() && (got > 0 || l.cfg.TrainIdle) {
			l.Step()
			continue
		}
		// Nothing to learn from: park until something can change that.
		// A wake token left by a frame that raced the intake above ends
		// the wait at once, so no frame is ever waited out.
		var deadline <-chan time.Time
		if !at.IsZero() {
			deadline = l.cfg.Clock.After(at.Sub(l.cfg.Clock.Now()))
		}
		select {
		case <-l.stop:
		case fn := <-l.ctl:
			fn()
		case <-l.wake:
		case <-deadline:
		}
	}
}

// Step runs one backend step and, when it lands, the post-step tail: the
// sentinel check, with a rollback to the newest valid checkpoint
// generation on divergence; otherwise OnStep, the publish every
// SnapshotEvery steps and the counted checkpoint every CheckpointEvery
// steps.  Loop goroutine only (or while the loop is not running).
func (l *Loop[T]) Step() {
	rec := l.Recorder()
	info, health, ok := l.b.Step(rec)
	if !ok {
		return
	}
	n := l.Steps.Load()
	if ev := l.keeper.Check(n, health); ev != nil {
		// Divergence: roll back before anything downstream (OnStep,
		// snapshot publish, checkpoint write) can observe or persist the
		// poisoned state.  A failed rollback leaves the event in
		// last_error and the learner degraded; training continues from
		// the diverged state rather than crashing the loop.
		l.SetErr(ev)
		r0 := time.Now()
		err := guard.Rollback(l.keeper, ev, l.b.Apply)
		rec.Span(-1, "rollback", r0, time.Since(r0))
		if err != nil {
			l.SetErr(err)
		}
	} else {
		if l.cfg.OnStep != nil {
			l.cfg.OnStep(n, info)
		}
		if n%int64(l.cfg.SnapshotEvery) == 0 {
			p0 := time.Now()
			l.b.Publish()
			rec.Span(-1, "snapshot_publish", p0, time.Since(p0))
		}
		if l.cfg.CheckpointEvery > 0 && l.cfg.CheckpointPath != "" && n%int64(l.cfg.CheckpointEvery) == 0 {
			c0 := time.Now()
			err := l.WriteCheckpoint(l.cfg.CheckpointPath)
			if h := l.cfg.CheckpointSeconds; h != nil {
				h.Observe(time.Since(c0).Seconds())
			}
			if err != nil {
				l.SetErr(fmt.Errorf("checkpoint: %w", err))
			} else {
				l.ckWrites.Add(1)
			}
			rec.Span(-1, "checkpoint", c0, time.Since(c0))
		}
	}
	rec.End(n)
	l.rec = nil
}

// Recorder returns the span recorder of the upcoming step, beginning one
// when tracing is on (nil otherwise).  Loop goroutine only.
func (l *Loop[T]) Recorder() *obs.StepRecorder {
	if l.cfg.Trace != nil && l.rec == nil {
		l.rec = l.cfg.Trace.Begin()
	}
	return l.rec
}

// WriteCheckpoint persists the training state crash-safely: into the
// checksummed retention ring when one is configured for path (see
// LoopConfig.CheckpointKeep), as an atomically replaced plain gob file
// otherwise.  Load it back with guard.Load or guard.LoadNewest.  Loop
// goroutine only, or while the loop is not running.
func (l *Loop[T]) WriteCheckpoint(path string) error {
	ck, err := l.b.Build()
	if err != nil {
		return err
	}
	return l.keeper.Save(path, ck)
}

// SetErr records err as the learner's last error.
func (l *Loop[T]) SetErr(err error) {
	s := err.Error()
	l.lastErr.Store(&s)
}

// Health returns the self-healing ledger; safe from any goroutine.
func (l *Loop[T]) Health() *guard.Health { return l.keeper.Health }

// Stats returns the backend-independent header of the learner's stats:
// steps, periodic checkpoints, the last error and — when a checkpoint
// ring or sentinel is configured — the guard row.  Safe from any
// goroutine.
func (l *Loop[T]) Stats() Stats {
	st := Stats{Steps: l.Steps.Load(), Checkpoints: l.ckWrites.Load()}
	if e := l.lastErr.Load(); e != nil {
		st.LastError = *e
	}
	if l.keeper.Armed() {
		st.Guard = l.keeper.Health.Status(l.cfg.Clock.Now())
	}
	return st
}
