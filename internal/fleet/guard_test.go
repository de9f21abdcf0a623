package fleet

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fekf/internal/fleet/clocktest"
	"fekf/internal/guard"
	"fekf/internal/obs"
)

// assertFleetsBitwise fails unless the two fleets hold bitwise-identical
// shared state: weights, λ, and the covariance (full P replicated, owned
// slab diagonals under pshard).
func assertFleetsBitwise(t *testing.T, a, b *Fleet, when string) {
	t.Helper()
	la, lb := a.liveIDs(), b.liveIDs()
	if len(la) != len(lb) {
		t.Fatalf("%s: live sets differ: %v vs %v", when, la, lb)
	}
	if a.Steps() != b.Steps() {
		t.Fatalf("%s: steps differ: %d vs %d", when, a.Steps(), b.Steps())
	}
	ra, rb := a.reps[la[0]], b.reps[lb[0]]
	wa, wb := ra.model.Params.FlattenValues(), rb.model.Params.FlattenValues()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("%s: weight %d differs: %v vs %v", when, i, wa[i], wb[i])
		}
	}
	if math.Float64frombits(a.lambdaBits.Load()) != math.Float64frombits(b.lambdaBits.Load()) {
		t.Fatalf("%s: λ differs", when)
	}
	if a.cfg.PShard {
		for k, id := range la {
			sa, sb := a.cov.states[id], b.cov.states[lb[k]]
			if sa == nil || sb == nil {
				t.Fatalf("%s: missing shard state on rank %d", when, k)
			}
			if math.Float64bits(sa.Lambda) != math.Float64bits(sb.Lambda) || sa.Updates != sb.Updates {
				t.Fatalf("%s: shard scalar state differs on rank %d", when, k)
			}
			da, db := sa.PDiagonal(), sb.PDiagonal()
			if len(da) != len(db) {
				t.Fatalf("%s: owned diagonal sizes differ on rank %d", when, k)
			}
			for i := range da {
				if da[i] != db[i] {
					t.Fatalf("%s: P diagonal %d differs on rank %d", when, i, k)
				}
			}
		}
	} else if d := a.cov.states[la[0]].PDrift(b.cov.states[lb[0]]); d != 0 {
		t.Fatalf("%s: P drift %g between fleets, want exactly 0", when, d)
	}
}

// poisonAt makes the post-step seam add c's one-shot poison delta to every
// live replica: a poisoned reduced gradient reaches all ranks identically
// under the funnel schedule, so the bitwise drift invariant holds over the
// broken state and the sentinel reads ReasonWeightNonFinite at that step.
func poisonAt(f *Fleet, c guard.ChaosConfig) {
	fired := false // conductor-owned
	f.postStep = func(n int64, live []int) {
		if d := c.MaybePoison(n, &fired, f.reps[live[0]].model.NumParams()); d != nil {
			for _, id := range live {
				f.reps[id].model.Params.AddFlat(d)
			}
		}
	}
}

// hangAt makes the pre-collective seam park replica id once, at the given
// 1-based step, until the watchdog aborts that step.  Every other rank
// marks itself in the collective and then calls reached (nil: no-op).
func hangAt(f *Fleet, id int, step int64, reached func(id int)) {
	var fired atomic.Bool
	f.preCollective = func(ctx context.Context, rid int, n int64, enter func()) error {
		if rid == id && n == step && fired.CompareAndSwap(false, true) {
			<-ctx.Done()
			return ctx.Err()
		}
		enter()
		if reached != nil {
			reached(rid)
		}
		return nil
	}
}

// The tentpole acceptance path over the full transport/covariance matrix: a
// NaN poisoned into every replica at step 5 must trip the sentinel and roll
// the whole fleet back — bitwise — to the newest ring generation, after
// which it advances in lockstep with an uninjected twin resumed from that
// same generation.
func TestFleetGuardRollbackBitwiseTwin(t *testing.T) {
	for _, mode := range []struct {
		name   string
		pshard bool
	}{{"replicated", false}, {"pshard", true}} {
		for _, transport := range []string{"chan", "tcp"} {
			t.Run(mode.name+"/"+transport, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "ckpt.gob")
				trace := obs.NewTracer(16)
				cfg := Config{
					Transport: transport, PShard: mode.pshard, Seed: 11,
					BatchSize:      2,
					CheckpointPath: path, CheckpointEvery: 2, CheckpointKeep: 3,
					Guard: guard.SentinelConfig{Enabled: true},
					Trace: trace,
				}
				ds, f := newTestFleet(t, 3, cfg)
				poisonAt(f, guard.ChaosConfig{PoisonStep: 5})
				for i := 0; i < 12; i++ {
					if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
						t.Fatalf("ingest %d: %v %v", i, ok, err)
					}
				}
				f.drainAll()
				for i := 0; i < 4; i++ {
					f.loop.Step()
				}
				ck, seq, quarantined, err := guard.LoadNewest[Checkpoint](path, 3)
				if err != nil || len(quarantined) != 0 {
					t.Fatalf("load newest: seq=%d q=%v err=%v", seq, quarantined, err)
				}
				if seq != 2 || ck.Steps != 4 {
					t.Fatalf("newest generation seq=%d steps=%d, want 2/4", seq, ck.Steps)
				}
				twinCfg := cfg
				twinCfg.CheckpointPath, twinCfg.CheckpointEvery, twinCfg.CheckpointKeep = "", 0, 0
				twinCfg.Guard = guard.SentinelConfig{}
				twinCfg.Trace = nil
				twin, err := Resume(ck, twinCfg)
				if err != nil {
					t.Fatal(err)
				}

				// Step 5 poisons every replica identically; the sentinel
				// must catch it and roll the fleet back to generation 2.
				f.loop.Step()
				if got := f.Steps(); got != 4 {
					t.Fatalf("after rollback at step %d, want 4", got)
				}
				st := f.Stats()
				if st.Guard == nil || st.Guard.Divergences != 1 || st.Guard.Rollbacks != 1 || !st.Guard.Degraded {
					t.Fatalf("guard status after divergence: %+v", st.Guard)
				}
				if st.Guard.LastReason != guard.ReasonWeightNonFinite || st.Guard.LastStep != 5 {
					t.Fatalf("divergence attribution: %+v", st.Guard)
				}
				if st.Guard.RollbackGeneration != 2 || st.Guard.RollbackStep != 4 {
					t.Fatalf("rollback target: %+v", st.Guard)
				}
				var sawRollbackSpan bool
				for _, str := range trace.Last(16) {
					for _, sp := range str.Spans {
						if sp.Name == "rollback" {
							sawRollbackSpan = true
						}
					}
				}
				if !sawRollbackSpan {
					t.Fatal("no rollback span in the step trace")
				}
				// Prediction availability: the routed snapshot is the clean
				// rolled-back state, never the poisoned one.
				snap := f.Snapshot()
				if snap == nil || snap.Step != 4 {
					t.Fatalf("post-rollback snapshot: %+v", snap)
				}
				for _, v := range snap.Model.Params.FlattenValues() {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatal("post-rollback snapshot carries non-finite weights")
					}
				}
				assertBitwiseConsistent(t, f)
				assertFleetsBitwise(t, f, twin, "after rollback")

				// The chaos injection is one-shot: the re-run of step 5 is
				// clean, and both fleets advance in bitwise lockstep.
				for i := 0; i < 2; i++ {
					f.loop.Step()
					twin.loop.Step()
				}
				if f.Steps() != 6 {
					t.Fatalf("post-recovery steps: %d, want 6", f.Steps())
				}
				if got := f.Stats().Guard.Divergences; got != 1 {
					t.Fatalf("re-run of the poisoned step diverged again: %d events", got)
				}
				assertBitwiseConsistent(t, f)
				assertFleetsBitwise(t, f, twin, "two steps past rollback")
			})
		}
	}
}

// A bit-flipped newest generation must be quarantined during rollback, with
// recovery landing bitwise on the next older valid generation.
func TestFleetRollbackSkipsCorruptGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.gob")
	cfg := Config{
		Seed: 3, BatchSize: 2,
		CheckpointPath: path, CheckpointEvery: 2, CheckpointKeep: 3,
		Guard: guard.SentinelConfig{Enabled: true},
	}
	ds, f := newTestFleet(t, 2, cfg)
	poisonAt(f, guard.ChaosConfig{PoisonStep: 5, PoisonInf: true})
	for i := 0; i < 8; i++ {
		if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("ingest %d: %v %v", i, ok, err)
		}
	}
	f.drainAll()
	for i := 0; i < 4; i++ {
		f.loop.Step()
	}
	// Corrupt the newest generation (step 4); the rollback must fall back
	// to generation 1 (step 2).
	if err := guard.FlipByte(guard.NewRing(path, 3).GenPath(2), -3); err != nil {
		t.Fatal(err)
	}
	f.loop.Step()
	st := f.Stats()
	if f.Steps() != 2 || st.Guard.RollbackGeneration != 1 || st.Guard.RollbackStep != 2 {
		t.Fatalf("fallback rollback: steps=%d guard=%+v", f.Steps(), st.Guard)
	}
	if st.Guard.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Guard.Quarantined)
	}
	ck, seq, _, err := guard.LoadNewest[Checkpoint](path, 3)
	if err != nil || seq != 1 {
		t.Fatalf("newest after quarantine: seq=%d err=%v", seq, err)
	}
	twinCfg := cfg
	twinCfg.CheckpointPath, twinCfg.CheckpointEvery, twinCfg.CheckpointKeep = "", 0, 0
	twinCfg.Guard = guard.SentinelConfig{}
	twin, err := Resume(ck, twinCfg)
	if err != nil {
		t.Fatal(err)
	}
	assertFleetsBitwise(t, f, twin, "after corrupt-generation fallback")
	for i := 0; i < 2; i++ {
		f.loop.Step()
		twin.loop.Step()
	}
	assertBitwiseConsistent(t, f)
	assertFleetsBitwise(t, f, twin, "two steps past fallback")
}

// The step watchdog under a deterministic clock: a rank hung before the
// collective must be attributed, aborted and killed through the existing
// reconcile path, leaving the survivors bitwise consistent — and the dead
// replica rejoins through Revive as usual.
func TestFleetWatchdogKillsHungRank(t *testing.T) {
	clk := clocktest.New(time.Unix(0, 0))
	cfg := Config{
		Seed: 7, Clock: clk,
		StepTimeout: time.Second,
	}
	ds, f := newTestFleet(t, 3, cfg)
	for i := 0; i < 9; i++ {
		if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("ingest %d: %v %v", i, ok, err)
		}
	}
	f.drainAll()
	f.loop.Step() // step 1: healthy

	// Step 2 parks replica 1 before the collective; the other ranks block
	// inside it.  Advance the fake clock past the deadline once the
	// watchdog has armed itself — step 1's already-expired registration is
	// still parked on the fake clock, so wait for the second one — AND the
	// healthy ranks have provably passed their progress marker (hangAt
	// reports them after enter): firing the fake clock while a healthy
	// rank's goroutine is still unscheduled at progress 0 would tie it with
	// the hung rank and mis-attribute the stall.
	var reached [3]atomic.Bool
	hangAt(f, 1, 2, func(id int) { reached[id].Store(true) })
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.loop.Step()
	}()
	for clk.Waiters() < 2 || !reached[0].Load() || !reached[2].Load() {
		time.Sleep(time.Millisecond)
	}
	clk.Advance(2 * time.Second)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("watchdog did not unwedge the hung step")
	}

	if f.reps[1].alive.Load() {
		t.Fatal("hung replica still alive after the watchdog fired")
	}
	st := f.Stats()
	if st.Guard == nil || st.Guard.WatchdogFires != 1 || !st.Guard.Degraded {
		t.Fatalf("guard status after watchdog: %+v", st.Guard)
	}
	if st.Guard.LastReason != "step_watchdog" {
		t.Fatalf("watchdog reason: %+v", st.Guard)
	}
	// The parked rank's inject error is swallowed by design (a failing rank
	// contributes zero partials but still runs the collectives); the hang
	// surfaces through the watchdog's abort cause, which names the stuck
	// rank and replica.
	if !strings.Contains(st.LastError, "watchdog") || !strings.Contains(st.LastError, "replica 1") {
		t.Fatalf("last error %q does not carry the watchdog attribution", st.LastError)
	}
	if live := f.liveIDs(); len(live) != 2 {
		t.Fatalf("live = %v, want 2 survivors", live)
	}
	assertBitwiseConsistent(t, f)

	// The hang is one-shot: the dead rank rejoins through the normal
	// catch-up path and the fleet steps on, drift still exactly zero.
	if err := f.Revive(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	f.drainAll()
	f.loop.Step()
	if f.Steps() != 3 || len(f.liveIDs()) != 3 {
		t.Fatalf("post-revive: steps=%d live=%v", f.Steps(), f.liveIDs())
	}
	assertBitwiseConsistent(t, f)
}

// Chaos soak (run under -race via make race-guard): a NaN poison, a hung
// rank and a checkpoint byte-flip against a running fleet.  The fleet must
// keep /v1/predict availability throughout (the router never returns nil or
// a non-finite snapshot), recover to drift exactly 0, and record the
// divergence, rollback and watchdog events.
func TestFleetGuardChaosSoak(t *testing.T) {
	for _, tc := range []struct {
		name      string
		pshard    bool
		transport string
	}{
		{"replicated/chan", false, "chan"},
		{"replicated/tcp", false, "tcp"},
		{"pshard/chan", true, "chan"},
		{"pshard/tcp", true, "tcp"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ckpt.gob")
			cfg := Config{
				Transport: tc.transport, PShard: tc.pshard, Seed: 5,
				SnapshotEvery: 1, TrainIdle: true, QueueSize: 64,
				CheckpointPath: path, CheckpointEvery: 2, CheckpointKeep: 4,
				Guard: guard.SentinelConfig{Enabled: true},
				// Comfortably above the real per-step latency (which grows
				// under -race): a spurious watchdog fire would kill a
				// healthy rank.
				StepTimeout: 5 * time.Second,
			}
			ds, f := newTestFleet(t, 3, cfg)
			poisonAt(f, guard.ChaosConfig{PoisonStep: 6})
			hangAt(f, 2, 9, nil)
			f.Start()

			stop := make(chan struct{})
			errC := make(chan error, 2)
			// Producer: stream labelled frames for the whole soak.
			go func() {
				for i := 0; ; i++ {
					select {
					case <-stop:
						errC <- nil
						return
					default:
					}
					f.Ingest(ds.Snapshots[i%ds.Len()])
					time.Sleep(2 * time.Millisecond)
				}
			}()
			// Reader: prediction availability must never drop to zero.
			go func() {
				for {
					select {
					case <-stop:
						errC <- nil
						return
					default:
					}
					snap := f.Snapshot()
					if snap == nil {
						errC <- context.Canceled
						return
					}
					for _, v := range snap.Model.Params.FlattenValues() {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							errC <- context.DeadlineExceeded
							return
						}
					}
					time.Sleep(time.Millisecond)
				}
			}()

			// Byte-flip a ring generation once two exist, then ride out the
			// poison, the hang, and a few recovery steps.
			flipped := false
			deadline := time.Now().Add(90 * time.Second)
			for time.Now().Before(deadline) {
				if !flipped {
					if gens, err := guard.NewRing(path, 4).Generations(); err == nil && len(gens) >= 2 {
						if err := guard.FlipByte(gens[len(gens)-1].Path, -1); err == nil {
							flipped = true
						}
					}
				}
				st := f.Stats()
				if st.Guard != nil && st.Guard.Rollbacks >= 1 && st.Guard.WatchdogFires >= 1 && f.Steps() >= 12 {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			close(stop)
			if err := <-errC; err != nil {
				t.Fatal("prediction availability dropped during the soak")
			}
			if err := <-errC; err != nil {
				t.Fatal("prediction availability dropped during the soak")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := f.Stop(ctx); err != nil {
				t.Fatal(err)
			}

			st := f.Stats()
			if st.Guard == nil || st.Guard.Divergences < 1 || st.Guard.Rollbacks < 1 {
				t.Fatalf("soak recorded no recovery: %+v", st.Guard)
			}
			if st.Guard.WatchdogFires < 1 {
				t.Fatalf("soak never fired the watchdog: %+v", st.Guard)
			}
			if f.Steps() < 10 {
				t.Fatalf("soak converged only %d steps", f.Steps())
			}
			if f.WeightDrift() != 0 || f.PDrift() != 0 {
				t.Fatalf("drift gauges %g/%g after soak, want exactly 0", f.WeightDrift(), f.PDrift())
			}
			assertBitwiseConsistent(t, f)
		})
	}
}
