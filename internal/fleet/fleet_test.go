package fleet

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/guard"
	"fekf/internal/online"
	"fekf/internal/optimize"
)

// fleetSetup builds a small labelled stream, an initialized tiny model and
// a paper-default FEKF for fleet tests.
func fleetSetup(t testing.TB) (*dataset.Dataset, *deepmd.Model, *optimize.FEKF) {
	t.Helper()
	ds, err := dataset.Generate("Cu", dataset.GenOptions{
		Snapshots: 24, SampleEvery: 4, EquilSteps: 25, Tiny: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := deepmd.SnapshotSystem(ds, &ds.Snapshots[0])
	m, err := deepmd.NewModel(deepmd.TinyConfig(sys))
	if err != nil {
		t.Fatal(err)
	}
	m.Level = deepmd.OptAll
	m.Dev = device.New("fleet-test", device.A100())
	if err := m.InitFromDataset(ds); err != nil {
		t.Fatal(err)
	}
	opt := optimize.NewFEKF()
	opt.KCfg = opt.KCfg.WithOpt3()
	return ds, m, opt
}

func newTestFleet(t testing.TB, replicas int, cfg Config) (*dataset.Dataset, *Fleet) {
	t.Helper()
	ds, m, opt := fleetSetup(t)
	cfg.Replicas = replicas
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 2
	}
	f, err := New(m, opt, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, f
}

// assertBitwiseConsistent checks the fleet invariant the hard way, in
// either covariance mode: every live replica's weights and λ must
// equal the first live replica's, element for element, the covariance's P
// drift (full P replicated, scalar filter state sharded) must be exactly
// 0, and so must the mirrored drift gauges.
func assertBitwiseConsistent(t *testing.T, f *Fleet) {
	t.Helper()
	live := f.liveIDs()
	if len(live) < 2 {
		return
	}
	refW := f.reps[live[0]].model.Params.FlattenValues()
	refL, _ := f.cov.lambda(live[0])
	for _, id := range live[1:] {
		w := f.reps[id].model.Params.FlattenValues()
		for i := range refW {
			if w[i] != refW[i] {
				t.Fatalf("replica %d weight %d differs from replica %d", id, i, live[0])
			}
		}
		if l, ok := f.cov.lambda(id); !ok || l != refL {
			t.Fatalf("replica %d λ differs from replica %d", id, live[0])
		}
	}
	if d := f.cov.drift(live); d != 0 {
		t.Fatalf("live replicas' P drifts by %g", d)
	}
	if f.WeightDrift() != 0 {
		t.Fatalf("weight-drift gauge reads %g, want exactly 0", f.WeightDrift())
	}
	if f.PDrift() != 0 {
		t.Fatalf("P-drift gauge reads %g, want exactly 0", f.PDrift())
	}
}

// The tentpole invariant: after every lockstep step over a sharded stream,
// all replicas hold bitwise-identical weights and P.
func TestFleetLockstepBitwise(t *testing.T) {
	ds, f := newTestFleet(t, 3, Config{Seed: 11, Gate: online.GateConfig{Enabled: false}})
	for i := 0; i < 12; i++ {
		if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("ingest %d: %v %v", i, ok, err)
		}
	}
	// drive the conductor manually: drain shards, then step the fleet
	if got := f.drainAll(); got != 12 {
		t.Fatalf("drained %d frames, want 12", got)
	}
	for i := 0; i < 4; i++ {
		f.loop.Step()
		assertBitwiseConsistent(t, f)
	}
	if f.Steps() != 4 {
		t.Fatalf("took %d steps, want 4 (last error %q)", f.Steps(), f.Stats().LastError)
	}
	st := f.FleetStats()
	if st.WeightDrift != 0 || st.PDrift != 0 {
		t.Fatalf("stats report drift %g / %g, want exactly 0", st.WeightDrift, st.PDrift)
	}
	if st.RingWireBytes == 0 || st.RingOps == 0 {
		t.Fatal("lockstep steps moved no bytes over the ring")
	}
}

// Round-robin sharding must spread a stream evenly across live replicas;
// hash sharding must route a repeated configuration to the same replica.
func TestShardPolicies(t *testing.T) {
	ds, f := newTestFleet(t, 3, Config{Seed: 1, Gate: online.GateConfig{Enabled: false}})
	for i := 0; i < 12; i++ {
		if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("ingest %d: %v %v", i, ok, err)
		}
	}
	for _, r := range f.reps {
		if d := r.Queue.Depth(); d != 4 {
			t.Fatalf("round-robin left %d frames on replica %d, want 4", d, r.id)
		}
	}

	_, fh := newTestFleet(t, 3, Config{ShardPolicy: HashShard, Seed: 1, Gate: online.GateConfig{Enabled: false}})
	want := fh.shardOf(&ds.Snapshots[0])
	for i := 0; i < 5; i++ {
		if got := fh.shardOf(&ds.Snapshots[0]); got != want {
			t.Fatalf("hash policy moved a stable frame: %d then %d", want, got)
		}
	}
	// dead replicas are skipped, not piled onto
	fh.reps[want].alive.Store(false)
	if got := fh.shardOf(&ds.Snapshots[0]); got == want {
		t.Fatal("hash policy routed to a dead replica")
	}
	fh.reps[0].alive.Store(false)
	fh.reps[1].alive.Store(false)
	fh.reps[2].alive.Store(false)
	if got := fh.shardOf(&ds.Snapshots[0]); got != -1 {
		t.Fatalf("sharder picked replica %d with none live", got)
	}
	if _, err := fh.Ingest(ds.Snapshots[0]); err != ErrNoReplica {
		t.Fatalf("ingest with no live replica: %v, want ErrNoReplica", err)
	}
}

func TestParseShardPolicy(t *testing.T) {
	for _, in := range []string{"round-robin", "rr", "roundrobin", ""} {
		if p, err := ParseShardPolicy(in); err != nil || p != RoundRobin {
			t.Fatalf("ParseShardPolicy(%q) = %v, %v", in, p, err)
		}
	}
	if p, err := ParseShardPolicy("hash"); err != nil || p != HashShard {
		t.Fatalf("ParseShardPolicy(hash) = %v, %v", p, err)
	}
	if _, err := ParseShardPolicy("banana"); err == nil {
		t.Fatal("ParseShardPolicy accepted banana")
	}
	if RoundRobin.String() != "round-robin" || HashShard.String() != "hash" {
		t.Fatal("policy names do not round-trip")
	}
}

// The router must rotate across healthy replicas and the aggregated stats
// must reconcile with the per-replica rows.
func TestRouterAndStats(t *testing.T) {
	ds, f := newTestFleet(t, 3, Config{Seed: 3, Gate: online.GateConfig{Enabled: false}})
	f.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := f.Stop(ctx); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 9; i++ {
		if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("ingest %d: %v %v", i, ok, err)
		}
	}
	for i := 0; i < 6; i++ {
		if f.Snapshot() == nil {
			t.Fatal("router returned nil with live replicas")
		}
	}
	st := f.FleetStats()
	if st.Replicas != 3 || st.Live != 3 {
		t.Fatalf("stats report %d/%d replicas, want 3/3", st.Live, st.Replicas)
	}
	if st.ShardPolicy != "round-robin" {
		t.Fatalf("stats report policy %q", st.ShardPolicy)
	}
	var routed int64
	for _, rs := range st.Replica {
		routed += rs.PredictsRouted
	}
	if routed != 6 {
		t.Fatalf("router accounted %d predicts, want 6", routed)
	}
	for _, rs := range st.Replica[1:] {
		if rs.PredictsRouted != st.Replica[0].PredictsRouted {
			t.Fatalf("router skew: %+v", st.Replica)
		}
	}
	agg := f.Stats()
	if agg.System != "Cu" {
		t.Fatalf("aggregated system %q", agg.System)
	}
	if agg.ReplayCapacity == 0 || agg.QueueCapacity == 0 {
		t.Fatal("aggregated capacities are zero")
	}
	if agg.FramesQueued != 9 {
		t.Fatalf("aggregated %d queued frames, want 9", agg.FramesQueued)
	}
}

// Checkpoint → Resume must restore every replica bitwise (shared weights,
// λ, P) and the per-replica replay RNG positions, so the resumed fleet's
// next step equals the uninterrupted fleet's next step exactly.
func TestFleetCheckpointResumeBitwise(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	// BatchSize is explicit: Resume must see the same sampling width the
	// original fleet used, or the replay RNG streams fan apart.
	cfg := Config{BatchSize: 2, Seed: 9, CheckpointPath: path, Gate: online.GateConfig{Enabled: false}}
	ds, f := newTestFleet(t, 3, cfg)
	for i := 0; i < 12; i++ {
		if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("ingest %d: %v %v", i, ok, err)
		}
	}
	f.drainAll()
	for i := 0; i < 3; i++ {
		f.loop.Step()
	}
	if err := f.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	ck, err := guard.Load[Checkpoint](path)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Resume(ck, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Steps() != 3 || f2.Replicas() != 3 {
		t.Fatalf("resumed at step %d with %d replicas", f2.Steps(), f2.Replicas())
	}
	for i := range f.reps {
		w1 := f.reps[i].model.Params.FlattenValues()
		w2 := f2.reps[i].model.Params.FlattenValues()
		for j := range w1 {
			if w1[j] != w2[j] {
				t.Fatalf("replica %d weight %d differs after resume", i, j)
			}
		}
		if d := f.cov.states[i].PDrift(f2.cov.states[i]); d != 0 {
			t.Fatalf("replica %d P differs after resume by %g", i, d)
		}
		if f.reps[i].Replay().Seen() != f2.reps[i].Replay().Seen() {
			t.Fatalf("replica %d replay did not resume", i)
		}
	}
	// the decisive check: one more step on each fleet — same replay RNG
	// positions, same shared state — must stay bitwise equal.
	f.loop.Step()
	f2.loop.Step()
	assertBitwiseConsistent(t, f)
	assertBitwiseConsistent(t, f2)
	for i := range f.reps {
		w1 := f.reps[i].model.Params.FlattenValues()
		w2 := f2.reps[i].model.Params.FlattenValues()
		for j := range w1 {
			if w1[j] != w2[j] {
				t.Fatalf("replica %d weight %d diverged on the first post-resume step", i, j)
			}
		}
	}
	if f.Stats().Lambda != f2.Stats().Lambda {
		t.Fatal("λ diverged on the first post-resume step")
	}
}

// flipPMirror breaks P's bitwise symmetry in one off-diagonal element of
// block 0 — (0, n−1), whose mirror lies in another slab of a sharded P —
// and returns the element's description as restore names it.
func flipPMirror(ck *Checkpoint) string {
	if ck.PCk != nil {
		n := ck.PCk.Sizes[0]
		for _, s := range ck.PCk.Shards {
			if s.Block == 0 && s.RowLo == 0 {
				s.Rows[n-1] = math.Nextafter(s.Rows[n-1], math.Inf(1))
			}
		}
		return fmt.Sprintf("block 0 is not symmetric: P[0][%d]", n-1)
	}
	p := ck.Opt.Kalman.P[0]
	p[1] = math.Nextafter(p[1], math.Inf(1))
	return "block 0 is not symmetric: P[0][1]"
}

// overlapPSlabs replaces block 0's slabs of a sharded checkpoint with the
// whole block plus copies of its rows 1 and 3: every row is held and every
// mirror agrees, but rows 1 and 3 are held twice, which restore must
// reject.  It returns the rejection's description.
func overlapPSlabs(ck *Checkpoint) string {
	pck := ck.PCk
	n := pck.Sizes[0]
	whole := make([]float64, n*n)
	var kept []optimize.SlabRows
	for _, s := range pck.Shards {
		if s.Block != 0 {
			kept = append(kept, s)
			continue
		}
		copy(whole[s.RowLo*n:], s.Rows)
	}
	pck.Shards = append(kept,
		optimize.SlabRows{Block: 0, RowHi: n, Rows: whole},
		optimize.SlabRows{Block: 0, RowLo: 1, RowHi: 2, Rows: slices.Clone(whole[n : 2*n])},
		optimize.SlabRows{Block: 0, RowLo: 3, RowHi: 4, Rows: slices.Clone(whole[3*n : 4*n])})
	return fmt.Sprintf("block 0 slab rows [1,2) do not follow row %d", n)
}

// Resume rejects a checkpoint whose covariance is not bitwise symmetric,
// in both modes: the row-walk drain relies on the symmetry and would
// carry an asymmetric P forward unchanged.
func TestResumeRejectsAsymmetricP(t *testing.T) {
	for _, pshard := range []bool{false, true} {
		t.Run(fmt.Sprintf("pshard=%v", pshard), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fleet.ckpt")
			cfg := Config{PShard: pshard, Seed: 9, Gate: online.GateConfig{Enabled: false}}
			ds, f := newTestFleet(t, 2, cfg)
			for i := 0; i < 4; i++ {
				f.Ingest(ds.Snapshots[i])
			}
			f.drainAll()
			f.loop.Step()
			if err := f.WriteCheckpoint(path); err != nil {
				t.Fatal(err)
			}
			ck, err := guard.Load[Checkpoint](path)
			if err != nil {
				t.Fatal(err)
			}
			want := flipPMirror(ck)
			if _, err := Resume(ck, cfg); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Resume error = %v, want one naming %q", err, want)
			}
		})
	}
}

// Resume and guard rollback reject a replay stream that a replica could
// not sample, before they replace anything: a forged window capacity (it
// makes NewReplay panic with "makeslice: len out of range") and frames
// whose box ingest would refuse (sampling one panics the step in
// md.BuildNeighbors, on the conductor).
func TestRestoreRejectsBadReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	cfg := Config{Seed: 9, Gate: online.GateConfig{Enabled: false}}
	ds, f := newTestFleet(t, 2, cfg)
	for i := 0; i < 4; i++ {
		f.Ingest(ds.Snapshots[i])
	}
	f.drainAll()
	f.loop.Step()
	if err := f.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		edit       func(*online.ReplayCheckpoint)
	}{
		{"window capacity", "exceed", func(r *online.ReplayCheckpoint) { r.WindowCap = 1 << 50 }},
		{"huge box", "replay window frame 0", func(r *online.ReplayCheckpoint) {
			for i := range r.Window {
				r.Window[i].Box = [3]float64{1e18, 1e18, 1e18}
			}
		}},
	} {
		ck, err := guard.Load[Checkpoint](path)
		if err != nil {
			t.Fatal(err)
		}
		for _, rck := range ck.Replicas {
			c.edit(rck.Replay)
		}
		if _, err := f.applyCheckpoint(ck); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: rollback error = %v, want one naming %q", c.name, err, c.want)
		}
		f2, err := Resume(ck, cfg)
		if err == nil {
			f2.loop.Step()
			t.Fatalf("%s: Resume accepted the checkpoint", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Resume error = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// Race soak: concurrent sharded ingest, routed prediction and stats polling
// while the fleet conductor steps — run under -race (make race-fleet).
func TestFleetConcurrentSoak(t *testing.T) {
	ds, f := newTestFleet(t, 3, Config{
		SnapshotEvery: 1, TrainIdle: true, QueueSize: 8, QueuePolicy: online.DropNewest,
		Seed: 5, Gate: online.GateConfig{Enabled: true, Threshold: 0.5},
	})
	f.Start()

	deadline := time.Now().Add(700 * time.Millisecond)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				if _, err := f.Ingest(ds.Snapshots[(p+i)%ds.Len()]); err != nil {
					return // queues closed during shutdown
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(p)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				snap := f.Snapshot()
				env, err := deepmd.BuildBatchEnv(snap.Model.Cfg, ds, []int{0})
				if err != nil {
					t.Error(err)
					return
				}
				out := snap.Model.Forward(env, true)
				if out.Energies.Value.Data[0] != out.Energies.Value.Data[0] {
					t.Error("snapshot forward produced NaN")
				}
				out.Graph.Release()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			_ = f.Stats()
			_ = f.FleetStats()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := f.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Steps == 0 {
		t.Fatal("soak finished without a single fleet step")
	}
	if st.LastError != "" {
		t.Fatalf("fleet recorded error: %s", st.LastError)
	}
	assertBitwiseConsistent(t, f)
}
