package fleet

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"fekf/internal/guard"
	"fekf/internal/online"
	"fekf/internal/tensor"
)

// assertNoReplicaState fails if the fleet's filter settings hold a Kalman
// state: every P of the fleet lives in its covariance, in both modes, and
// no replica carries an optimizer of its own.
func assertNoReplicaState(t *testing.T, f *Fleet, when string) {
	t.Helper()
	if f.opt.State() != nil {
		t.Fatalf("%s: the fleet's optimizer holds a Kalman state", when)
	}
}

// fleetP reassembles the fleet's P, λ and update count from its own
// checkpoint.
func fleetP(t *testing.T, f *Fleet) ([]*tensor.Dense, float64, int) {
	t.Helper()
	ck, err := f.buildCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	return checkpointP(t, ck)
}

// assertSameBits fails unless a and b hold the same float64 bits.
func assertSameBits(t *testing.T, a, b []float64, what string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d values vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: value %d differs: %v vs %v", what, i, a[i], b[i])
		}
	}
}

// A sharded rollback must reject a checkpoint whose P is not bitwise
// symmetric — one off-diagonal nudged by an ulp, its mirror in another
// rank's slab — before it replaces anything.
func TestRollbackRejectsAsymmetricP(t *testing.T) {
	assertRollbackRejected(t, flipPMirror)
}

// A sharded rollback must reject, not crash on, a checkpoint whose slabs
// hold some rows twice; the row lookup of an overlapping tiling misses
// rows.
func TestRollbackRejectsOverlappingSlabs(t *testing.T) {
	assertRollbackRejected(t, overlapPSlabs)
}

// A rollback must reject a checkpoint whose filter settings differ from
// the ones the fleet runs: they are fixed at build, and a checkpoint the
// fleet wrote always carries them.
func TestRollbackRejectsOtherFilterSettings(t *testing.T) {
	assertRollbackRejected(t, func(ck *Checkpoint) string {
		ck.Opt.ForceGroups++
		return "filter settings"
	})
}

// assertRollbackRejected rolls a stepped 3-replica sharded fleet back to
// an earlier checkpoint that corrupt damaged: the rollback must fail with
// the error corrupt names, and weights, steps and P stay as they were,
// and the fleet steps on.
func assertRollbackRejected(t *testing.T, corrupt func(*Checkpoint) string) {
	t.Helper()
	ds, f := newTestFleet(t, 3, Config{PShard: true, Seed: 29, Gate: online.GateConfig{Enabled: false}})
	for i := 0; i < 12; i++ {
		if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("ingest %d: %v %v", i, ok, err)
		}
	}
	f.drainAll()
	f.loop.Step()
	ck, err := f.buildCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	f.loop.Step()
	steps := f.Steps()
	weights := f.reps[0].model.Params.FlattenValues()
	p, lambda, updates := fleetP(t, f)

	want := corrupt(ck)
	if _, err := f.applyCheckpoint(ck); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("rollback error = %v, want one naming %q", err, want)
	}
	if f.Steps() != steps {
		t.Fatalf("rejected rollback moved the step count to %d, want %d", f.Steps(), steps)
	}
	for _, r := range f.reps {
		assertSameBits(t, r.model.Params.FlattenValues(), weights, "weights after a rejected rollback")
	}
	p2, lambda2, updates2 := fleetP(t, f)
	if math.Float64bits(lambda2) != math.Float64bits(lambda) || updates2 != updates {
		t.Fatalf("rejected rollback moved the filter to λ %v / %d updates, want %v / %d", lambda2, updates2, lambda, updates)
	}
	for bi := range p {
		assertSameBits(t, p2[bi].Data, p[bi].Data, "P after a rejected rollback")
	}
	f.loop.Step()
	if f.Steps() != steps+1 {
		t.Fatalf("fleet stopped stepping after a rejected rollback (last error %q)", f.Stats().LastError)
	}
	assertBitwiseConsistent(t, f)
	f.retireRing()
}

// New from a prototype whose filter already stepped seeds the fleet's P
// with the prototype's, bitwise, in both modes; the replicas' own filters
// hold no Kalman state, and the fleet steps on in lockstep.
func TestNewSeedsFromSteppedPrototype(t *testing.T) {
	for _, mode := range covModes {
		t.Run(mode.name, func(t *testing.T) {
			ds, m, opt := fleetSetup(t)
			for s := 0; s < 2; s++ {
				if _, err := opt.Step(m, ds, []int{0, 1, 2, 3}); err != nil {
					t.Fatal(err)
				}
			}
			ks := opt.State()
			f, err := New(m, opt, ds, Config{Replicas: 3, PShard: mode.pshard, BatchSize: 2,
				Seed: 31, Gate: online.GateConfig{Enabled: false}})
			if err != nil {
				t.Fatal(err)
			}
			assertNoReplicaState(t, f, "New")
			p, lambda, updates := fleetP(t, f)
			if math.Float64bits(lambda) != math.Float64bits(ks.Lambda) || updates != ks.Updates {
				t.Fatalf("fleet filter at λ %v / %d updates, prototype at %v / %d", lambda, updates, ks.Lambda, ks.Updates)
			}
			for bi := range p {
				assertSameBits(t, p[bi].Data, ks.P[bi].Data, "seeded P")
			}
			for i := 0; i < 12; i++ {
				if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
					t.Fatalf("ingest %d: %v %v", i, ok, err)
				}
			}
			f.drainAll()
			f.loop.Step()
			if f.Steps() != 1 {
				t.Fatalf("seeded fleet took no step (last error %q)", f.Stats().LastError)
			}
			assertBitwiseConsistent(t, f)
			f.retireRing()
		})
	}
}

// No optimizer of the fleet holds a Kalman state at any point of its
// life: after New, a step, Kill and Revive, a rollback, and Resume.
func TestReplicaOptimizersHoldNoKalmanState(t *testing.T) {
	for _, mode := range covModes {
		t.Run(mode.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fleet.ckpt")
			cfg := Config{PShard: mode.pshard, Seed: 33, Gate: online.GateConfig{Enabled: false}}
			ds, f := newTestFleet(t, 3, cfg)
			assertNoReplicaState(t, f, "New")
			for i := 0; i < 12; i++ {
				if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
					t.Fatalf("ingest %d: %v %v", i, ok, err)
				}
			}
			f.drainAll()
			f.loop.Step()
			assertNoReplicaState(t, f, "step")
			ctx := context.Background()
			if err := f.Kill(ctx, 1); err != nil {
				t.Fatal(err)
			}
			if err := f.Revive(ctx, 1); err != nil {
				t.Fatal(err)
			}
			assertNoReplicaState(t, f, "Revive")
			ck, err := f.buildCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.applyCheckpoint(ck); err != nil {
				t.Fatal(err)
			}
			assertNoReplicaState(t, f, "rollback")
			if err := f.WriteCheckpoint(path); err != nil {
				t.Fatal(err)
			}
			ck, err = guard.Load[Checkpoint](path)
			if err != nil {
				t.Fatal(err)
			}
			f2, err := Resume(ck, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertNoReplicaState(t, f2, "Resume")
			f.retireRing()
		})
	}
}

// Kill and Revive refit P at once, before the next step: a killed
// replica's state is freed (its resident P reads 0 in both modes), and a
// sharded fleet's stats row and gate diagonals follow the new live set.
func TestKillReviveRefitAtOnce(t *testing.T) {
	for _, mode := range covModes {
		t.Run(mode.name, func(t *testing.T) {
			ds, f := newTestFleet(t, 3, Config{PShard: mode.pshard, Seed: 35, Gate: online.GateConfig{Enabled: false}})
			for i := 0; i < 12; i++ {
				if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
					t.Fatalf("ingest %d: %v %v", i, ok, err)
				}
			}
			f.drainAll()
			f.loop.Step()
			ctx := context.Background()
			for _, c := range []struct {
				name  string
				apply func(context.Context, int) error
				ranks int
			}{{"Kill", f.Kill, 2}, {"Revive", f.Revive, 3}} {
				if err := c.apply(ctx, 1); err != nil {
					t.Fatal(err)
				}
				st := f.FleetStats()
				var total int64
				for _, rs := range st.Replica {
					if !rs.Alive && rs.PResidentBytes != 0 {
						t.Fatalf("%s: dead replica %d reports %d resident P bytes", c.name, rs.ID, rs.PResidentBytes)
					}
					if rs.Alive && len(f.cov.diag(rs.ID)) == 0 {
						t.Fatalf("%s: live replica %d has no P diagonal to gate on", c.name, rs.ID)
					}
					total += rs.PResidentBytes
				}
				if !mode.pshard {
					if st.PShard != nil {
						t.Fatalf("%s: replicated fleet reports a pshard row", c.name)
					}
					continue
				}
				if st.PShard == nil || st.PShard.Ranks != c.ranks {
					t.Fatalf("%s: pshard row %+v, want %d ranks before the next step", c.name, st.PShard, c.ranks)
				}
				if total != st.PShard.TotalBytes {
					t.Fatalf("%s: live replicas hold %d P bytes, want the %d of one P", c.name, total, st.PShard.TotalBytes)
				}
			}
			assertBitwiseConsistent(t, f)
			f.loop.Step()
			assertBitwiseConsistent(t, f)
			f.retireRing()
		})
	}
}
