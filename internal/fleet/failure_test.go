package fleet

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"fekf/internal/cluster"
	"fekf/internal/deepmd"
	"fekf/internal/guard"
	"fekf/internal/online"
	"fekf/internal/tensor"
)

// covModes is the covariance-mode axis of the tests that run both modes.
var covModes = []struct {
	name   string
	pshard bool
}{{"replicated", false}, {"pshard", true}}

// make race-pshard runs the pshard subtests of the covModes tests by
// name: go test splits -run on '/', so one pattern cannot pick them out
// without matching every test.  Every test of this package that ranges
// over covModes must be on that list, or carry PShard in its name.
func TestRacePShardNamesEveryModeTest(t *testing.T) {
	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^race-pshard:(?:\n\t.*)*?-run '\^\(([^)]*)\)\$\$/\^pshard\$\$'`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile's race-pshard recipe has no -run '^(…)$$/^pshard$$' invocation")
	}
	listed := strings.Split(string(m[1]), "|")
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		af, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range af.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !strings.HasPrefix(fn.Name.Name, "Test") || strings.Contains(fn.Name.Name, "PShard") {
				continue
			}
			ranges := false
			ast.Inspect(fn, func(n ast.Node) bool {
				if r, ok := n.(*ast.RangeStmt); ok {
					if id, ok := r.X.(*ast.Ident); ok && id.Name == "covModes" {
						ranges = true
					}
				}
				return !ranges
			})
			if ranges && !slices.Contains(listed, fn.Name.Name) {
				t.Errorf("%s ranges over covModes but race-pshard does not name it", fn.Name.Name)
			}
		}
	}
}

// assertPSPD requires every block of the live covariance to pass a
// Cholesky factorization: P stays symmetric positive-definite through
// failure recovery.  P is reassembled from the fleet's states first.
func assertPSPD(t *testing.T, f *Fleet) {
	t.Helper()
	for bi, p := range assemblePShardP(t, f) {
		if !tensor.CholeskyPD(p) {
			t.Fatalf("P block %d is not symmetric positive-definite", bi)
		}
	}
}

// A replica crashing mid-step (after its environment build) must leave the
// survivors bitwise consistent: the crashed rank contributes zero partials
// but applies the same reduced update, so weights and P cannot diverge.
func TestReplicaCrashMidStepKeepsConsistency(t *testing.T) {
	for _, mode := range covModes {
		t.Run(mode.name, func(t *testing.T) {
			ds, f := newTestFleet(t, 3, Config{PShard: mode.pshard, Seed: 21, Gate: online.GateConfig{Enabled: false}})
			for i := 0; i < 12; i++ {
				if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
					t.Fatalf("ingest %d: %v %v", i, ok, err)
				}
			}
			f.drainAll()
			f.loop.Step() // one healthy step first
			assertBitwiseConsistent(t, f)

			boom := errors.New("simulated mid-step crash")
			f.preCollective = func(_ context.Context, id int, _ int64, _ func()) error {
				if id == 1 {
					return boom
				}
				return nil
			}
			f.loop.Step()
			f.preCollective = nil

			if f.Steps() != 2 {
				t.Fatalf("took %d steps, want 2", f.Steps())
			}
			st := f.Stats()
			if !strings.Contains(st.LastError, "simulated mid-step crash") {
				t.Fatalf("crash not surfaced in stats: %q", st.LastError)
			}
			// the decisive invariant: the crash did not break bitwise
			// consistency, and training continues cleanly afterwards
			assertBitwiseConsistent(t, f)
			assertPSPD(t, f)
			f.loop.Step()
			assertBitwiseConsistent(t, f)
			if f.Steps() != 3 {
				t.Fatalf("fleet stopped stepping after a replica crash: %d", f.Steps())
			}
		})
	}
}

// A ring failure that takes every rank must still leave one replica to
// train, checkpoint and resume from: here every rank of the first ring is
// severed at its first message.
func TestRingFailureOfEveryRankKeepsOneReplica(t *testing.T) {
	for _, mode := range covModes {
		t.Run(mode.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fleet.ckpt")
			rings := 0
			cfg := Config{PShard: mode.pshard, Seed: 23, CheckpointPath: path,
				Gate: online.GateConfig{Enabled: false}}
			ringFactory := func(size int) (*cluster.Ring, error) {
				rings++
				var tr cluster.Transport = cluster.NewChanTransport(size)
				if rings == 1 {
					var rules []cluster.FaultRule
					for r := 0; r < size; r++ {
						rules = append(rules, cluster.FaultRule{Rank: r, Msg: 0, Kind: cluster.FaultSever})
					}
					tr = cluster.NewFaultyTransport(tr, rules...)
				}
				return cluster.NewRingOver(tr, cluster.RoCE25()), nil
			}
			ds, f := newTestFleet(t, 3, cfg)
			f.ringFactory = ringFactory
			for i := 0; i < 12; i++ {
				if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
					t.Fatalf("ingest %d: %v %v", i, ok, err)
				}
			}
			f.drainAll()
			f.loop.Step()
			if !strings.Contains(f.Stats().LastError, "ring broken") {
				t.Fatalf("sever not surfaced: %q", f.Stats().LastError)
			}
			st := f.FleetStats()
			if st.Live != 1 {
				t.Fatalf("%d live replicas after every rank failed, want 1", st.Live)
			}
			if st.WeightDrift != 0 || st.PDrift != 0 {
				t.Fatalf("drift gauges %g/%g after recovery, want exactly 0", st.WeightDrift, st.PDrift)
			}
			assertPSPD(t, f)

			// The survivor trains on over a fresh ring of one.
			before := f.reps[f.liveIDs()[0]].model.Params.FlattenValues()
			f.loop.Step()
			if f.Steps() != 2 {
				t.Fatalf("took %d steps, want 2 (last error %q)", f.Steps(), f.Stats().LastError)
			}
			after := f.reps[f.liveIDs()[0]].model.Params.FlattenValues()
			moved := false
			for i := range before {
				if before[i] != after[i] {
					moved = true
					break
				}
			}
			if !moved {
				t.Fatal("the surviving replica did not train")
			}

			f.Start()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := f.Stop(ctx); err != nil {
				t.Fatalf("stop: %v", err)
			}
			ck, err := guard.Load[Checkpoint](path)
			if err != nil {
				t.Fatal(err)
			}
			f2, err := Resume(ck, Config{Seed: 23, Gate: online.GateConfig{Enabled: false}})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if live := f2.liveIDs(); len(live) != 1 {
				t.Fatalf("resumed live set %v, want one replica", live)
			}
			n := f2.Steps()
			f2.loop.Step()
			if f2.Steps() != n+1 {
				t.Fatalf("resumed fleet did not step (last error %q)", f2.Stats().LastError)
			}
			f2.retireRing()
		})
	}
}

// Replacing a replica's filter — Revive's catch-up and the guard's
// in-place restore — must free the covariance it replaces: the replica's
// simulated device holds the same bytes after every kill/revive cycle and
// after a rollback restore as before.
func TestCatchUpFreesReplacedCovariance(t *testing.T) {
	for _, mode := range covModes {
		t.Run(mode.name, func(t *testing.T) {
			ds, f := newTestFleet(t, 3, Config{PShard: mode.pshard, Seed: 27, Gate: online.GateConfig{Enabled: false}})
			for i := 0; i < 12; i++ {
				if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
					t.Fatalf("ingest %d: %v %v", i, ok, err)
				}
			}
			f.drainAll()
			f.loop.Step()
			dev := f.reps[1].dev
			want := dev.Counters().LiveBytes
			ctx := context.Background()
			for cycle := 1; cycle <= 3; cycle++ {
				if err := f.Kill(ctx, 1); err != nil {
					t.Fatal(err)
				}
				f.loop.Step()
				if err := f.Revive(ctx, 1); err != nil {
					t.Fatal(err)
				}
				f.loop.Step()
				if got := dev.Counters().LiveBytes; got != want {
					t.Fatalf("cycle %d: replica 1 holds %d live device bytes, want %d", cycle, got, want)
				}
			}
			ck, err := f.buildCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.applyCheckpoint(ck); err != nil {
				t.Fatal(err)
			}
			if got := dev.Counters().LiveBytes; got != want {
				t.Fatalf("after a rollback restore replica 1 holds %d live device bytes, want %d", got, want)
			}
			f.retireRing()
		})
	}
}

// Killing a replica must drain it from the predict rotation without
// failing in-flight predictions, keep the survivors training with zero
// drift, and keep /v1/predict availability throughout.  The conductor is
// driven manually (the fleet is never started), so the whole sequence is
// deterministic — no polling loops, no sleeps.
func TestKillKeepsPredictAvailability(t *testing.T) {
	ds, f := newTestFleet(t, 3, Config{
		SnapshotEvery: 1, Seed: 13, Gate: online.GateConfig{Enabled: false},
	})
	for i := 0; i < 12; i++ {
		if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("ingest %d: %v %v", i, ok, err)
		}
	}
	f.drainAll()
	f.loop.Step() // SnapshotEvery 1: every step publishes routable snapshots
	f.loop.Step()
	assertBitwiseConsistent(t, f)

	// an in-flight prediction holds a snapshot across the kill
	held := f.Snapshot()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.Kill(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Kill(ctx, 1); err == nil {
		t.Fatal("double kill succeeded")
	}

	// the held snapshot still serves (immutable clone)
	env, err := deepmd.BuildBatchEnv(held.Model.Cfg, ds, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	out := held.Model.Forward(env, true)
	if out.Energies.Value.Data[0] != out.Energies.Value.Data[0] {
		t.Fatal("in-flight prediction NaN after kill")
	}
	out.Graph.Release()

	// the router stops handing out the dead replica but stays available
	before := f.reps[1].routed.Load()
	for i := 0; i < 12; i++ {
		if f.Snapshot() == nil {
			t.Fatal("predict availability lost after a kill")
		}
	}
	if got := f.reps[1].routed.Load(); got != before {
		t.Fatalf("router sent %d predicts to the dead replica", got-before)
	}

	// survivors keep training, bitwise consistent
	f.loop.Step()
	f.loop.Step()
	assertBitwiseConsistent(t, f)
	st := f.FleetStats()
	if st.Live != 2 {
		t.Fatalf("stats report %d live replicas, want 2", st.Live)
	}
	if st.WeightDrift != 0 || st.PDrift != 0 {
		t.Fatalf("survivors drifted: %g / %g", st.WeightDrift, st.PDrift)
	}

	// ingest keeps flowing, sharded over the survivors only
	pushed1 := f.reps[1].Queue.Pushed()
	for i := 0; i < 6; i++ {
		if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("post-kill ingest %d: %v %v", i, ok, err)
		}
	}
	if got := f.reps[1].Queue.Pushed(); got != pushed1 {
		t.Fatalf("sharder sent %d frames to the dead replica", got-pushed1)
	}
}

// Rejoin: a revived replica catches up from a survivor's checkpoint of the
// shared state and is bitwise identical again — drift returns to exactly 0
// and the router resumes sending it predictions.  Under pshard the revived
// replica holds its slabs and the filter's λ at once, before the next step.
func TestReviveCatchesUpBitwise(t *testing.T) {
	for _, mode := range covModes {
		t.Run(mode.name, func(t *testing.T) {
			ds, f := newTestFleet(t, 3, Config{PShard: mode.pshard, Seed: 17, Gate: online.GateConfig{Enabled: false}})
			for i := 0; i < 12; i++ {
				if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
					t.Fatalf("ingest %d: %v %v", i, ok, err)
				}
			}
			f.drainAll()
			f.loop.Step()
			assertBitwiseConsistent(t, f)

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := f.Kill(ctx, 2); err != nil {
				t.Fatal(err)
			}
			// survivors advance; the dead replica's state goes stale
			f.loop.Step()
			f.loop.Step()
			assertBitwiseConsistent(t, f) // live-only invariant
			stale := f.reps[2].model.Params.FlattenValues()
			fresh := f.reps[0].model.Params.FlattenValues()
			moved := false
			for i := range stale {
				if stale[i] != fresh[i] {
					moved = true
					break
				}
			}
			if !moved {
				t.Fatal("survivors did not advance past the dead replica")
			}

			if err := f.Revive(ctx, 2); err != nil {
				t.Fatal(err)
			}
			if err := f.Revive(ctx, 2); err == nil {
				t.Fatal("double revive succeeded")
			}
			// the revived replica is bitwise identical again, including P and λ
			assertBitwiseConsistent(t, f)
			if s := f.reps[2].Snapshot(); s == nil {
				t.Fatal("revived replica published no snapshot")
			}

			// and it participates in the next lockstep step without breaking the
			// invariant (the ring re-forms over all three replicas)
			f.loop.Step()
			assertBitwiseConsistent(t, f)
			if st := f.FleetStats(); st.Live != 3 {
				t.Fatalf("stats report %d live replicas after revive, want 3", st.Live)
			}
			f.retireRing()
		})
	}
}

// Revive with no survivor must fail cleanly rather than fabricate state.
func TestReviveNeedsSurvivor(t *testing.T) {
	_, f := newTestFleet(t, 2, Config{Seed: 19, Gate: online.GateConfig{Enabled: false}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Kill(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Kill(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Revive(ctx, 0); err == nil {
		t.Fatal("revive succeeded with no live replica to catch up from")
	}
}
