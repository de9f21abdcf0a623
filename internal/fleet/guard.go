package fleet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"fekf/internal/cluster"
	"fekf/internal/optimize"
)

// This file is what the fleet adds to the shared self-healing layer (the
// online.Loop's guard.Keeper and rollback tail): the step watchdog and the
// in-place restore that rolls every replica and the covariance back
// bitwise.  Everything here runs on the conductor goroutine except
// buildInject's returned closure, which runs on a rank goroutine and
// touches only its own arguments.

// buildInject composes the per-rank step injection: the preCollective test
// seam and — whenever the watchdog is armed — a progress marker so a stall
// can be attributed to the rank that never reached the collective.  Returns
// nil when there is nothing to inject (the fast path).
func (f *Fleet) buildInject(ctx context.Context, id int, step int64, prog *atomic.Int32) func() error {
	hook := f.preCollective
	if hook == nil && f.cfg.StepTimeout <= 0 {
		return nil
	}
	enter := func() { prog.Store(1) }
	return func() error {
		var err error
		if hook != nil {
			err = hook(ctx, id, step, enter)
		}
		enter()
		return err
	}
}

// awaitStep waits for every rank goroutine of one collective step, with the
// watchdog deadline armed when StepTimeout is configured: on expiry the
// least-advanced rank's transport is aborted — releasing every rank blocked
// in the collective with ErrRingBroken and marking the stuck rank dead, so
// the caller's existing recovery path kills it and reconciles the
// survivors — and release cancels the step's context.  Conductor only.
func (f *Fleet) awaitStep(wg *sync.WaitGroup, ring *cluster.Ring, live []int, stepNo int64, progress []atomic.Int32, release func()) {
	if f.cfg.StepTimeout <= 0 {
		wg.Wait()
		return
	}
	stepDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(stepDone)
	}()
	select {
	case <-stepDone:
	case <-f.clock.After(f.cfg.StepTimeout):
		stuck := -1
		for k := range progress {
			if p := progress[k].Load(); p < 2 && (stuck < 0 || p < progress[stuck].Load()) {
				stuck = k
			}
		}
		if stuck < 0 {
			// The step completed in the race window between the wait and
			// the timer; nothing is stuck.
			<-stepDone
			return
		}
		cause := fmt.Errorf("fleet: step %d watchdog: rank %d (replica %d) stuck after %v",
			stepNo+1, stuck, live[stuck], f.cfg.StepTimeout)
		ring.Transport().Abort(stuck, cause)
		release()
		f.loop.Health().NoteWatchdog(stepNo + 1)
		f.loop.Recorder().Span(-1, "watchdog_abort", f.clock.Now(), 0)
		<-stepDone
	}
}

// applyCheckpoint restores a fleet checkpoint in place — the rollback
// path, and Resume's on a fresh fleet: a checkpoint whose filter settings
// differ from the fleet's is rejected, the checkpointed P is validated and
// fit to the checkpoint's live replicas before anything else is replaced,
// then the in-flight ring is retired (aborting anything still on the
// wire), every replica gets the checkpointed weights bitwise, the lanes
// rewind to their checkpointed positions, and clean snapshots are
// republished.  It returns the restored step.  Conductor only.
func (f *Fleet) applyCheckpoint(ck *Checkpoint) (int64, error) {
	if err := f.sameFilter(ck.Opt); err != nil {
		return 0, err
	}
	if err := ck.validateReplays(f.cutoff); err != nil {
		return 0, err
	}
	if len(ck.Replicas) != len(f.reps) {
		return 0, fmt.Errorf("fleet: checkpoint has %d replicas, fleet has %d", len(ck.Replicas), len(f.reps))
	}
	var live []int
	for i, rck := range ck.Replicas {
		if rck.ID != f.reps[i].id {
			return 0, fmt.Errorf("fleet: checkpoint replica %d has id %d", i, rck.ID)
		}
		if rck.Alive {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return 0, fmt.Errorf("fleet: checkpoint has no live replica")
	}
	pck, err := ck.covariance()
	if err != nil {
		return 0, err
	}
	if err := pck.Validate(); err != nil {
		return 0, err
	}
	if err := f.cov.fit(pck, live, false); err != nil {
		return 0, err
	}
	f.retireRing()
	for _, r := range f.reps {
		if err := r.restoreModel(ck.Model); err != nil {
			return 0, err
		}
	}
	f.restoreStream(ck)
	// Republish clean snapshots at the restored step so the predict tier
	// never serves the diverged weights.
	f.publish(live, ck.Steps)
	f.updateInvariants(live)
	return ck.Steps, nil
}

// sameFilter fails unless ck restores to the filter settings the fleet
// runs: they are fixed at build, so a checkpoint the fleet wrote always
// matches.
func (f *Fleet) sameFilter(ck *optimize.FEKFCheckpoint) error {
	if ck == nil {
		return fmt.Errorf("fleet: checkpoint has no optimizer state")
	}
	o, err := optimize.RestoreFEKF(filterConfig(ck), f.reps[0].model)
	if err != nil {
		return err
	}
	if got, want := *o.Checkpoint(), *f.opt.Checkpoint(); got != want {
		return fmt.Errorf("fleet: checkpoint filter settings %+v differ from the fleet's %+v", got, want)
	}
	return nil
}
