package fleet

import (
	"context"
	"testing"
	"time"

	"fekf/internal/fleet/clocktest"
	"fekf/internal/online"
)

// awaitParked gives an idle loop time to reach its idle wait: until it has
// registered a fake-clock waiter, or for a short real-time grace period
// when its wait needs no timer at all.
func awaitParked(clk *clocktest.Clock) {
	deadline := time.Now().Add(200 * time.Millisecond)
	for clk.Waiters() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// awaitSteps waits, in real time only, for s to complete want steps.
func awaitSteps(t *testing.T, s mirrorSubject, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().Steps < want {
		if time.Now().After(deadline) {
			t.Fatalf("no step %d within 30s of real time (stats %+v)", want, s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// A frame posted to an idle loop must wake it: with TrainIdle off and the
// fleet on a fake clock nobody advances, ingesting BatchSize frames must
// still produce a step promptly.  The single trainer obeys the same rule.
func TestIngestWakesIdleLoop(t *testing.T) {
	t.Run("fleet", func(t *testing.T) {
		clk := clocktest.New(time.Unix(0, 0))
		ds, f := newTestFleet(t, 2, Config{Seed: 3, Clock: clk})
		f.Start()
		defer f.Stop(context.Background())
		awaitParked(clk)
		for i := 0; i < f.cfg.BatchSize; i++ {
			if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
				t.Fatalf("ingest %d: %v %v", i, ok, err)
			}
		}
		awaitSteps(t, f, 1)
	})
	t.Run("trainer", func(t *testing.T) {
		ds, m, opt := fleetSetup(t)
		tr, err := online.NewTrainer(m, opt, ds, online.TrainerConfig{BatchSize: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		tr.Start()
		defer tr.Stop(context.Background())
		time.Sleep(20 * time.Millisecond)
		for i := 0; i < 2; i++ {
			if ok, err := tr.Ingest(ds.Snapshots[i]); !ok || err != nil {
				t.Fatalf("ingest %d: %v %v", i, ok, err)
			}
		}
		awaitSteps(t, tr, 1)
	})
}

// An idle autoscaling fleet still runs one controller evaluation per
// AutoscaleInterval of fake time — the autoscaler deadline is the only
// thing its idle wait times.
func TestAutoscaleIdleEvaluatesPerInterval(t *testing.T) {
	clk := clocktest.New(time.Unix(0, 0))
	const interval = AutoscaleInterval
	_, f := newTestFleet(t, 1, Config{
		Seed: 3, Clock: clk,
		Autoscale: AutoscaleConfig{Enabled: true, Min: 1, Max: 2},
	})
	evals := func() int64 { return f.FleetStats().Autoscale.Evals }
	awaitEvals := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for evals() < want || clk.Waiters() < 1 {
			if time.Now().After(deadline) {
				t.Fatalf("evals %d (waiters %d), want %d", evals(), clk.Waiters(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	f.Start()
	defer f.Stop(context.Background())
	awaitEvals(1) // the first pass evaluates at once
	for want := int64(2); want <= 4; want++ {
		clk.Advance(interval / 2)
		time.Sleep(10 * time.Millisecond)
		if got := evals(); got != want-1 {
			t.Fatalf("evaluated %d times half an interval early, want %d", got, want-1)
		}
		clk.Advance(interval / 2)
		awaitEvals(want)
		time.Sleep(10 * time.Millisecond)
		if got := evals(); got != want {
			t.Fatalf("idle fleet evaluated %d times after %d intervals, want %d", got, want-1, want)
		}
	}
}
