package fleet

import (
	"strings"
	"testing"
	"time"

	"fekf/internal/fleet/clocktest"
	"fekf/internal/online"
)

// testScaler builds an autoscaler on a fake clock parked at t=0.
func testScaler(t *testing.T, cfg AutoscaleConfig) (*Autoscaler, *clocktest.Clock) {
	t.Helper()
	clk := clocktest.New(time.Unix(0, 0))
	cfg.Enabled = true
	return NewAutoscaler(cfg, 2, clk), clk
}

// High pressure above the band must scale up by exactly one replica.
func TestAutoscaleScaleUp(t *testing.T) {
	a, _ := testScaler(t, AutoscaleConfig{Min: 1, Max: 4})
	v := a.Evaluate(Sample{Live: 2, QueueOccupancy: 0.9, GateAcceptRate: 1})
	if v.Decision != ScaleUp || v.Target != 3 {
		t.Fatalf("verdict %+v, want up to 3", v)
	}
	if v.Pressure != 0.9 {
		t.Fatalf("pressure %g, want 0.9 (occ alone with accept=1, lat=0)", v.Pressure)
	}
	if a.ups.Load() != 1 || a.downs.Load() != 0 {
		t.Fatalf("counters %d/%d, want 1/0", a.ups.Load(), a.downs.Load())
	}
}

// Low pressure below the band must scale down by exactly one replica.
func TestAutoscaleScaleDown(t *testing.T) {
	a, _ := testScaler(t, AutoscaleConfig{Min: 1, Max: 4})
	v := a.Evaluate(Sample{Live: 3, QueueOccupancy: 0.05, GateAcceptRate: 1})
	if v.Decision != ScaleDown || v.Target != 2 {
		t.Fatalf("verdict %+v, want down to 2", v)
	}
	if a.downs.Load() != 1 {
		t.Fatalf("downs %d, want 1", a.downs.Load())
	}
}

// Pressure inside the hysteresis band holds — no flapping between the
// thresholds.
func TestAutoscaleDeadBand(t *testing.T) {
	a, _ := testScaler(t, AutoscaleConfig{Min: 1, Max: 4})
	for _, occ := range []float64{0.21, 0.5, 0.74} {
		v := a.Evaluate(Sample{Live: 2, QueueOccupancy: occ, GateAcceptRate: 1})
		if v.Decision != Hold || v.Target != 2 {
			t.Fatalf("occ %g: verdict %+v, want hold at 2", occ, v)
		}
		if !strings.Contains(v.Reason, "dead-band") {
			t.Fatalf("occ %g: reason %q does not name the dead-band", occ, v.Reason)
		}
	}
	if a.ups.Load() != 0 || a.downs.Load() != 0 {
		t.Fatal("dead-band evaluations committed scale events")
	}
}

// Cooldowns gate both directions from the last scale event: an up right
// after an up is suppressed until UpCooldown elapses, and a down right
// after an up is suppressed until DownCooldown elapses.
func TestAutoscaleCooldownSuppression(t *testing.T) {
	a, clk := testScaler(t, AutoscaleConfig{Min: 1, Max: 4})
	hi := Sample{Live: 2, QueueOccupancy: 1, GateAcceptRate: 1}
	lo := Sample{Live: 3, QueueOccupancy: 0, GateAcceptRate: 1}

	if v := a.Evaluate(hi); v.Decision != ScaleUp {
		t.Fatalf("first up: %+v", v)
	}
	// Half an up-cooldown later: both directions still cooling down.
	clk.Advance(UpCooldown / 2)
	if v := a.Evaluate(hi); v.Decision != Hold || !strings.Contains(v.Reason, "cooldown") {
		t.Fatalf("up during up-cooldown: %+v", v)
	}
	if v := a.Evaluate(lo); v.Decision != Hold || !strings.Contains(v.Reason, "cooldown") {
		t.Fatalf("down during down-cooldown: %+v", v)
	}
	// At the up-cooldown's edge (still inside the longer down-cooldown):
	// up unblocked, down still cooling.
	clk.Advance(UpCooldown / 2)
	if v := a.Evaluate(lo); v.Decision != Hold {
		t.Fatalf("down %s after the up, inside the %s cooldown: %+v", UpCooldown, DownCooldown, v)
	}
	if v := a.Evaluate(hi); v.Decision != ScaleUp {
		t.Fatalf("up after up-cooldown: %+v", v)
	}
	// The second up resets the reference: a nanosecond short of the
	// down-cooldown after it, down still holds; at the edge it flows.
	clk.Advance(DownCooldown - time.Nanosecond)
	if v := a.Evaluate(lo); v.Decision != Hold {
		t.Fatalf("down a nanosecond inside the cooldown: %+v", v)
	}
	clk.Advance(time.Nanosecond)
	if v := a.Evaluate(lo); v.Decision != ScaleDown {
		t.Fatalf("down after full cooldown: %+v", v)
	}
	if a.ups.Load() != 2 || a.downs.Load() != 1 {
		t.Fatalf("counters %d/%d, want 2/1", a.ups.Load(), a.downs.Load())
	}
}

// The band never pushes the fleet outside [Min, Max], and a fleet found
// outside the band (replica deaths, resumed checkpoints) is healed back
// one replica per decision regardless of pressure.
func TestAutoscaleMinMaxClamp(t *testing.T) {
	a, clk := testScaler(t, AutoscaleConfig{Min: 2, Max: 4})
	if v := a.Evaluate(Sample{Live: 4, QueueOccupancy: 1, GateAcceptRate: 1}); v.Decision != Hold ||
		!strings.Contains(v.Reason, "at max") {
		t.Fatalf("at max: %+v", v)
	}
	if v := a.Evaluate(Sample{Live: 2, QueueOccupancy: 0, GateAcceptRate: 1}); v.Decision != Hold ||
		!strings.Contains(v.Reason, "at min") {
		t.Fatalf("at min: %+v", v)
	}
	// Below min: heal up even at zero pressure.
	if v := a.Evaluate(Sample{Live: 1, QueueOccupancy: 0, GateAcceptRate: 1}); v.Decision != ScaleUp ||
		!strings.Contains(v.Reason, "below min") {
		t.Fatalf("below min: %+v", v)
	}
	// Above max: drain down even at mid-band pressure (cooldown applies).
	clk.Advance(time.Minute)
	if v := a.Evaluate(Sample{Live: 6, QueueOccupancy: 0.5, GateAcceptRate: 1}); v.Decision != ScaleDown ||
		!strings.Contains(v.Reason, "above max") {
		t.Fatalf("above max: %+v", v)
	}
}

// The composite pressure weighs gate acceptance (rejected frames carry
// half weight) and step latency (a saturated conductor doubles pressure).
func TestAutoscalePressureSignals(t *testing.T) {
	a, _ := testScaler(t, AutoscaleConfig{Min: 1, Max: 4})
	if p := a.Pressure(Sample{QueueOccupancy: 1, GateAcceptRate: 0}); p != 0.5 {
		t.Fatalf("fully-rejected stream pressure %g, want 0.5", p)
	}
	if p := a.Pressure(Sample{QueueOccupancy: 0.4, GateAcceptRate: 1, StepLatency: AutoscaleInterval}); p != 0.8 {
		t.Fatalf("saturated-step pressure %g, want 0.8", p)
	}
	if p := a.Pressure(Sample{QueueOccupancy: 0.4, GateAcceptRate: 1, StepLatency: time.Hour}); p != 0.8 {
		t.Fatalf("latency factor uncapped: %g, want 0.8", p)
	}
}

// The tentpole integration, fully deterministic under the fake clock and
// with zero sleeps: a burst scales the fleet up through checkpoint
// catch-up, the cooldown suppresses the next move, quiescence scales it
// back down — and after every membership change the live replicas are
// bitwise identical (drift exactly 0), including across lockstep steps
// taken at every fleet width.
func TestAutoscaleFleetTransitionsBitwise(t *testing.T) {
	clk := clocktest.New(time.Unix(0, 0))
	cfg := Config{
		Seed: 23, Gate: online.GateConfig{Enabled: false},
		QueueSize: 8, Clock: clk,
		Autoscale: AutoscaleConfig{Enabled: true, Min: 1, Max: 3},
	}
	ds, f := newTestFleet(t, 1, cfg)
	if f.Replicas() != 3 {
		t.Fatalf("allocated %d slots, want Max=3", f.Replicas())
	}
	if live := f.liveIDs(); len(live) != 1 || live[0] != 0 {
		t.Fatalf("initial live = %v, want [0]", live)
	}

	// Train the lone replica so later catch-ups copy real, advanced state.
	for i := 0; i < 6; i++ {
		if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("ingest %d: %v %v", i, ok, err)
		}
	}
	f.drainAll()
	f.loop.Step()
	f.loop.Step()

	// Burst: fill the shard queue to 100% and run one control pass.
	for i := 6; i < 14; i++ {
		if ok, err := f.Ingest(ds.Snapshots[i%ds.Len()]); !ok || err != nil {
			t.Fatalf("burst ingest %d: %v %v", i, ok, err)
		}
	}
	f.notePressure()
	f.maybeAutoscale()
	if live := f.liveIDs(); len(live) != 2 {
		t.Fatalf("burst did not scale up: live %v", live)
	}
	if f.scaler.ups.Load() != 1 {
		t.Fatalf("scale-ups %d, want 1", f.scaler.ups.Load())
	}
	assertBitwiseConsistent(t, f) // the revived slot caught up bitwise

	// Still under pressure, but inside the up-cooldown: suppressed.
	f.notePressure()
	clk.Advance(AutoscaleInterval)
	f.maybeAutoscale()
	if live := f.liveIDs(); len(live) != 2 {
		t.Fatalf("cooldown failed to suppress a scale-up: live %v", live)
	}

	// Past the cooldown: the sustained burst grows the fleet to Max.
	f.notePressure()
	clk.Advance(UpCooldown)
	f.maybeAutoscale()
	if live := f.liveIDs(); len(live) != 3 {
		t.Fatalf("second scale-up missing: live %v", live)
	}
	assertBitwiseConsistent(t, f)

	// At Max: pressure no longer grows the fleet.
	f.notePressure()
	clk.Advance(UpCooldown)
	f.maybeAutoscale()
	if live := f.liveIDs(); len(live) != 3 {
		t.Fatalf("scaled past Max: live %v", live)
	}

	// The widened fleet trains in lockstep, bitwise identical.
	f.drainAll()
	f.loop.Step()
	assertBitwiseConsistent(t, f)

	// Quiescence: empty queues read as zero pressure; each decision
	// (spaced past the cooldown) shrinks the fleet by one, bitwise clean,
	// down to Min and no further.
	for want := 2; want >= 1; want-- {
		clk.Advance(DownCooldown)
		f.maybeAutoscale()
		if live := f.liveIDs(); len(live) != want {
			t.Fatalf("scale-down to %d missing: live %v (reason %q)", want, live, f.FleetStats().Autoscale.LastReason)
		}
		assertBitwiseConsistent(t, f)
		f.loop.Step()
		assertBitwiseConsistent(t, f)
	}
	clk.Advance(DownCooldown)
	f.maybeAutoscale()
	if live := f.liveIDs(); len(live) != 1 {
		t.Fatalf("scaled below Min: live %v", live)
	}
	if ups, downs := f.scaler.ups.Load(), f.scaler.downs.Load(); ups != 2 || downs != 2 {
		t.Fatalf("scale events %d up / %d down, want 2/2", ups, downs)
	}

	st := f.FleetStats()
	if st.Autoscale == nil || !st.Autoscale.Enabled {
		t.Fatal("fleet stats carry no autoscale row")
	}
	if st.Autoscale.Min != 1 || st.Autoscale.Max != 3 || st.Autoscale.Live != 1 || st.Autoscale.Target != 1 {
		t.Fatalf("autoscale row %+v", st.Autoscale)
	}
	if st.Autoscale.ScaleUps != 2 || st.Autoscale.ScaleDowns != 2 || st.Autoscale.Evals == 0 {
		t.Fatalf("autoscale row counters %+v", st.Autoscale)
	}
	if st.Autoscale.LastDecision == "" || st.Autoscale.LastReason == "" {
		t.Fatalf("autoscale row has no decision provenance: %+v", st.Autoscale)
	}
	if lastErr := f.Stats().LastError; lastErr != "" {
		t.Fatalf("autoscale cycle recorded an error: %s", lastErr)
	}
}

// Scale-down is a graceful drain: frames still queued on the victim's
// shard are re-admitted through the survivors, not dropped.
func TestAutoscaleDownReShardsBacklog(t *testing.T) {
	clk := clocktest.New(time.Unix(0, 0))
	cfg := Config{
		Seed: 29, Gate: online.GateConfig{Enabled: false}, QueueSize: 16, Clock: clk,
		Autoscale: AutoscaleConfig{Enabled: true, Min: 1, Max: 2},
	}
	ds, f := newTestFleet(t, 2, cfg)
	// Park 4 frames on each live shard (round-robin over 2 replicas).
	for i := 0; i < 8; i++ {
		if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("ingest %d: %v %v", i, ok, err)
		}
	}
	if d := f.reps[1].Queue.Depth(); d != 4 {
		t.Fatalf("replica 1 queued %d, want 4", d)
	}
	before := f.FleetStats().Replica[0].FramesAccepted
	f.scaleDown(f.liveIDs())
	if f.reps[1].alive.Load() {
		t.Fatal("scale-down left the victim alive")
	}
	if d := f.reps[1].Queue.Depth(); d != 0 {
		t.Fatalf("victim still holds %d queued frames after the drain", d)
	}
	// The victim's 4 frames flowed through the survivor's gate/replay.
	if got := f.FleetStats().Replica[0].FramesAccepted - before; got != 4 {
		t.Fatalf("survivor admitted %d re-sharded frames, want 4", got)
	}
	if lastErr := f.Stats().LastError; lastErr != "" {
		t.Fatalf("graceful drain recorded an error: %s", lastErr)
	}
}
