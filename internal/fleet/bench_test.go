package fleet

import (
	"fmt"
	"testing"
	"time"

	"fekf/internal/fleet/clocktest"
	"fekf/internal/online"
)

// BenchmarkFleetScaling sweeps the replica count and measures one lockstep
// fleet step (per-replica minibatch sampling, ring funnel-aggregation and
// the shared Kalman update on every replica).  The simulation shares one
// host, so wall time grows with N; the interesting outputs are the modeled
// wire bytes (reported by -v stats) and the invariant holding at scale.
func BenchmarkFleetScaling(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			ds, f := newTestFleet(b, n, Config{Seed: 42, Gate: online.GateConfig{Enabled: false}})
			for i := 0; i < 4*n; i++ {
				if ok, err := f.Ingest(ds.Snapshots[i%ds.Len()]); !ok || err != nil {
					b.Fatalf("ingest %d: %v %v", i, ok, err)
				}
			}
			f.drainAll()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.loop.Step()
			}
			b.StopTimer()
			if f.WeightDrift() != 0 || f.PDrift() != 0 {
				b.Fatalf("drift at %d replicas: %g / %g", n, f.WeightDrift(), f.PDrift())
			}
		})
	}
}

// BenchmarkAutoscaleDecision measures one controller evaluation — the
// pure-decision cost the conductor pays every sampling interval, scale
// event or not.  The sample mix walks through up, down and dead-band
// verdicts, and a fake clock advanced past both cooldowns between
// evaluations lets every up and down commit, so the cooldown bookkeeping
// is exercised too (the advance, a locked time add, is timed with it).
func BenchmarkAutoscaleDecision(b *testing.B) {
	clk := clocktest.New(time.Unix(0, 0))
	a := NewAutoscaler(AutoscaleConfig{Enabled: true, Min: 1, Max: 8}, 4, clk)
	samples := []Sample{
		{Live: 4, QueueOccupancy: 0.95, GateAcceptRate: 1, StepLatency: 40 * time.Millisecond},
		{Live: 4, QueueOccupancy: 0.5, GateAcceptRate: 0.8},
		{Live: 4, QueueOccupancy: 0.02, GateAcceptRate: 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Advance(DownCooldown)
		_ = a.Evaluate(samples[i%len(samples)])
	}
}

// BenchmarkFleetScaleTransition measures one full scale-up/scale-down
// round trip through the membership paths the autoscaler drives: revive
// with checkpoint catch-up from a survivor (model encode + Kalman restore)
// followed by a kill.  This is the latency a scale event adds between two
// lockstep steps.
func BenchmarkFleetScaleTransition(b *testing.B) {
	ds, f := newTestFleet(b, 1, Config{
		Seed: 42, Gate: online.GateConfig{Enabled: false},
		Autoscale: AutoscaleConfig{Enabled: true, Min: 1, Max: 2},
	})
	for i := 0; i < 4; i++ {
		if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
			b.Fatalf("ingest %d: %v %v", i, ok, err)
		}
	}
	f.drainAll()
	f.loop.Step() // advance past init so catch-up copies real trained state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.reviveLocked(1); err != nil {
			b.Fatal(err)
		}
		if err := f.killLocked(1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if f.WeightDrift() != 0 || f.PDrift() != 0 {
		b.Fatalf("drift after scale transitions: %g / %g", f.WeightDrift(), f.PDrift())
	}
}
