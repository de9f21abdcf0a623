package fleet

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"fekf/internal/deepmd"
	"fekf/internal/fleet/clocktest"
	"fekf/internal/online"
)

// Race soak for the autoscaler (run under -race via make race-autoscale):
// bursty producers slam tiny DropNewest queues while predict and stats
// traffic runs concurrently, forcing the conductor through full scale-up
// and scale-down cycles.  The controller runs on a fake clock that the
// stats sampler advances by one control interval per sample, so its
// intervals and cooldowns pass in fake time only, while producers,
// predicts and steps interleave in real time.  At every stats sample —
// and bitwise at the end — the replica drift must read exactly 0:
// membership changes driven by the controller must be as invisible to the
// training invariant as manual Kill/Revive.
func TestAutoscaleRaceSoak(t *testing.T) {
	clk := clocktest.New(time.Unix(0, 0))
	ds, f := newTestFleet(t, 1, Config{
		SnapshotEvery: 1, QueueSize: 4, QueuePolicy: online.DropNewest,
		Seed: 37, Clock: clk,
		Gate:      online.GateConfig{Enabled: false},
		Autoscale: AutoscaleConfig{Enabled: true, Min: 1, Max: 3},
	})
	f.Start()

	stopBurst := make(chan struct{})
	stopPredict := make(chan struct{})
	var burstWG, predictWG sync.WaitGroup
	// Burst-phase producers: overfill the tiny queues continuously so
	// pressure holds past the scale-up edge until the controller reacts.
	for p := 0; p < 2; p++ {
		burstWG.Add(1)
		go func(p int) {
			defer burstWG.Done()
			for i := 0; ; i++ {
				for k := 0; k < 12; k++ {
					if _, err := f.Ingest(ds.Snapshots[(7*p+i+k)%ds.Len()]); err != nil {
						return // queues closed during shutdown
					}
				}
				select {
				case <-stopBurst:
					return
				case <-time.After(5 * time.Millisecond):
				}
			}
		}(p)
	}
	// Concurrent predict traffic through the router, across every
	// membership change.
	predictWG.Add(1)
	go func() {
		defer predictWG.Done()
		for {
			select {
			case <-stopPredict:
				return
			default:
			}
			snap := f.Snapshot()
			if snap == nil {
				t.Error("router returned nil mid-soak")
				return
			}
			env, err := deepmd.BuildBatchEnv(snap.Model.Cfg, ds, []int{0})
			if err != nil {
				t.Error(err)
				return
			}
			out := snap.Model.Forward(env, true)
			if math.IsNaN(out.Energies.Value.Data[0]) {
				t.Error("snapshot forward produced NaN mid-soak")
			}
			out.Graph.Release()
		}
	}()

	// waitFor polls the fleet stats until cond holds, asserting exactly
	// zero replica drift at every sample along the way and advancing the
	// fake clock by one control interval after each.
	waitFor := func(what string, cond func(Stats) bool) {
		deadline := time.After(90 * time.Second)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			st := f.FleetStats()
			if st.WeightDrift != 0 || st.PDrift != 0 {
				t.Fatalf("drift %g / %g mid-soak, want exactly 0", st.WeightDrift, st.PDrift)
			}
			if st.Autoscale == nil {
				t.Fatal("autoscale row missing from fleet stats")
			}
			if cond(st) {
				return
			}
			clk.Advance(AutoscaleInterval)
			select {
			case <-deadline:
				t.Fatalf("%s did not happen before the deadline: %+v", what, st.Autoscale)
			case <-tick.C:
			}
		}
	}

	// Phase 1: the burst must grow the fleet, with real lockstep training
	// on the widened membership.
	waitFor("scale-up under burst", func(st Stats) bool {
		return st.Autoscale.ScaleUps >= 1 && st.Live >= 2 && st.Steps >= 2
	})

	// Phase 2: quiesce the producers; the drained queues must shrink the
	// fleet back to Min while predict traffic keeps flowing.
	close(stopBurst)
	burstWG.Wait()
	waitFor("scale-down after quiesce", func(st Stats) bool {
		return st.Autoscale.ScaleDowns >= 1 && st.Live == 1
	})

	close(stopPredict)
	predictWG.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := f.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.LastError != "" {
		t.Fatalf("fleet recorded error during the soak: %s", st.LastError)
	}
	assertBitwiseConsistent(t, f)
}
