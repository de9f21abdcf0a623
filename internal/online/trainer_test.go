package online

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/guard"
	"fekf/internal/optimize"
)

// onlineSetup builds a small labelled stream, an initialized tiny model and
// a paper-default FEKF for trainer tests.
func onlineSetup(t testing.TB) (*dataset.Dataset, *deepmd.Model, *optimize.FEKF) {
	t.Helper()
	ds, err := dataset.Generate("Cu", dataset.GenOptions{
		Snapshots: 16, SampleEvery: 4, EquilSteps: 25, Tiny: true, Seed: 7,
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
	m.Dev = device.New("online-test", device.A100())
	if err := m.InitFromDataset(ds); err != nil {
		t.Fatal(err)
	}
	opt := optimize.NewFEKF()
	opt.KCfg = opt.KCfg.WithOpt3()
	return ds, m, opt
}

func TestValidateFrame(t *testing.T) {
	ds, m, opt := onlineSetup(t)
	tr, err := NewTrainer(m, opt, ds, TrainerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	good := ds.Snapshots[0]
	if err := tr.ValidateFrame(&good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Pos = bad.Pos[:len(bad.Pos)-3]
	bad.Types = bad.Types[:len(bad.Types)-1]
	bad.Forces = bad.Forces[:len(bad.Forces)-3]
	if err := tr.ValidateFrame(&bad); err == nil {
		t.Fatal("frame with a different atom count passed validation")
	}
	bad = good
	bad.Types = append([]int(nil), good.Types...)
	bad.Types[0] = 7
	if err := tr.ValidateFrame(&bad); err == nil {
		t.Fatal("frame with an out-of-range species passed validation")
	}
	bad = good
	bad.Box = [3]float64{10, -1, 10}
	if err := tr.ValidateFrame(&bad); err == nil {
		t.Fatal("frame with a non-positive box passed validation")
	}
	bad = good
	bad.Forces = good.Forces[:0]
	if err := tr.ValidateFrame(&bad); err == nil {
		t.Fatal("unlabelled frame passed validation")
	}
}

// A published snapshot must be a fully isolated copy: training onward must
// never change it, and it must not alias the live training model.
func TestSnapshotIsolation(t *testing.T) {
	ds, m, opt := onlineSetup(t)
	tr, err := NewTrainer(m, opt, ds, TrainerConfig{
		BatchSize: 2, Seed: 5,
		Gate: GateConfig{Enabled: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	// drive the trainer manually (loop not started): admit → step → publish
	for i := 0; i < 4; i++ {
		tr.admit(ds.Snapshots[i])
	}
	tr.publish()
	snap := tr.Snapshot()
	if snap.Model == tr.model {
		t.Fatal("snapshot aliases the live training model")
	}
	frozen := append([]float64(nil), snap.Model.Params.FlattenValues()...)

	for i := 0; i < 3; i++ {
		tr.loop.Step()
	}
	if tr.loop.Steps.Load() != 3 {
		t.Fatalf("took %d steps, want 3 (last error %q)", tr.loop.Steps.Load(), tr.Stats().LastError)
	}
	after := snap.Model.Params.FlattenValues()
	for i := range frozen {
		if after[i] != frozen[i] {
			t.Fatalf("published snapshot weight %d changed during training", i)
		}
	}
	// the live model did move, and a new snapshot reflects that
	tr.publish()
	snap2 := tr.Snapshot()
	if snap2 == snap || snap2.Step != 3 {
		t.Fatalf("republish did not advance: step %d", snap2.Step)
	}
	moved := false
	for i, v := range snap2.Model.Params.FlattenValues() {
		if v != frozen[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("three optimizer steps left the weights bitwise unchanged")
	}
}

// Race soak for the acceptance criterion: concurrent ingest, prediction on
// published snapshots, and stats polling while the trainer loop steps.
// Run under -race (make race-online / make ci).
func TestConcurrentIngestPredictSoak(t *testing.T) {
	ds, m, opt := onlineSetup(t)
	tr, err := NewTrainer(m, opt, ds, TrainerConfig{
		BatchSize: 2, SnapshotEvery: 1, TrainIdle: true,
		QueueSize: 8, QueuePolicy: DropNewest, Seed: 5,
		Gate: GateConfig{Enabled: true, Threshold: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Start()

	deadline := time.Now().Add(700 * time.Millisecond)
	var wg sync.WaitGroup
	// two producers streaming labelled frames
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				if _, err := tr.Ingest(ds.Snapshots[(p+i)%ds.Len()]); err != nil {
					return // queue closed during shutdown
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(p)
	}
	// two readers running forwards on whatever snapshot is current
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				snap := tr.Snapshot()
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
	// one stats poller
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			_ = tr.Stats()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tr.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Steps == 0 {
		t.Fatal("soak finished without a single optimizer step")
	}
	if st.LastError != "" {
		t.Fatalf("trainer recorded error: %s", st.LastError)
	}
	if tr.Snapshot().Step != st.Steps {
		t.Fatalf("final snapshot at step %d, trainer at %d", tr.Snapshot().Step, st.Steps)
	}
}

// Kill → restart from the checkpoint must resume the λ schedule and P
// bitwise, and the next identical step must produce identical weights.
func TestCheckpointResumeBitwise(t *testing.T) {
	ds, m, opt := onlineSetup(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "online.ckpt")
	cfg := TrainerConfig{
		BatchSize: 2, CheckpointPath: path, Seed: 9,
		Gate: GateConfig{Enabled: false},
	}
	tr, err := NewTrainer(m, opt, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		tr.admit(ds.Snapshots[i])
	}
	for i := 0; i < 4; i++ {
		tr.loop.Step()
	}
	if err := tr.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("checkpoint dir not clean: %v", entries)
	}

	ck, err := guard.Load[Checkpoint](path)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := ResumeTrainer(ck, device.New("resume", device.A100()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.loop.Steps.Load() != 4 || tr2.Stats().Steps != 4 {
		t.Fatalf("resumed at step %d, want 4", tr2.loop.Steps.Load())
	}
	if tr2.opt.Lambda() != tr.opt.Lambda() {
		t.Fatalf("resumed λ %v, want %v", tr2.opt.Lambda(), tr.opt.Lambda())
	}
	if tr2.opt.Updates() != tr.opt.Updates() {
		t.Fatalf("resumed update count %d, want %d", tr2.opt.Updates(), tr.opt.Updates())
	}
	p1, p2 := tr.opt.PDiagonal(), tr2.opt.PDiagonal()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("P diagonal %d differs after resume", i)
		}
	}
	w1 := tr.model.Params.FlattenValues()
	w2 := tr2.model.Params.FlattenValues()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("weight %d differs after resume", i)
		}
	}
	if tr2.lane.Replay().Seen() != tr.lane.Replay().Seen() || tr2.lane.Replay().Len() != tr.lane.Replay().Len() {
		t.Fatal("replay buffer did not resume")
	}

	// the decisive check: one more IDENTICAL minibatch through both
	// steppers must keep λ, P and every weight bitwise equal.
	idx := []int{0, 1}
	if _, err := tr.stepper.Step(ds, idx); err != nil {
		t.Fatal(err)
	}
	if _, err := tr2.stepper.Step(ds, idx); err != nil {
		t.Fatal(err)
	}
	if tr.opt.Lambda() != tr2.opt.Lambda() {
		t.Fatalf("λ diverged on the first post-resume step: %v vs %v", tr.opt.Lambda(), tr2.opt.Lambda())
	}
	w1, w2 = tr.model.Params.FlattenValues(), tr2.model.Params.FlattenValues()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("weight %d diverged on the first post-resume step", i)
		}
	}
	p1, p2 = tr.opt.PDiagonal(), tr2.opt.PDiagonal()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("P diverged on the first post-resume step at %d", i)
		}
	}
}

// ResumeTrainer rejects a checkpoint whose P is not bitwise symmetric:
// the row-walk drain relies on the symmetry and would carry an asymmetric
// P forward unchanged.
func TestResumeTrainerRejectsAsymmetricP(t *testing.T) {
	ds, m, opt := onlineSetup(t)
	path := filepath.Join(t.TempDir(), "online.ckpt")
	cfg := TrainerConfig{BatchSize: 2, Seed: 9, Gate: GateConfig{Enabled: false}}
	tr, err := NewTrainer(m, opt, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tr.admit(ds.Snapshots[i])
	}
	tr.loop.Step()
	if err := tr.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	ck, err := guard.Load[Checkpoint](path)
	if err != nil {
		t.Fatal(err)
	}
	p := ck.Opt.Kalman.P[0]
	p[1] = math.Nextafter(p[1], math.Inf(1))
	_, err = ResumeTrainer(ck, device.New("resume", device.A100()), cfg)
	if want := "block 0 is not symmetric: P[0][1]"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ResumeTrainer error = %v, want one naming %q", err, want)
	}
}

// ResumeTrainer rejects a replay stream that the trainer could not
// sample, before it restores anything: forged capacities (a window of
// 1<<50 makes NewReplay panic with "makeslice: len out of range") and
// frames whose box ingest would refuse (sampling one panics the step in
// md.BuildNeighbors).
func TestResumeTrainerRejectsBadReplay(t *testing.T) {
	ds, m, opt := onlineSetup(t)
	path := filepath.Join(t.TempDir(), "online.ckpt")
	cfg := TrainerConfig{BatchSize: 2, Seed: 9, Gate: GateConfig{Enabled: false}}
	tr, err := NewTrainer(m, opt, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tr.admit(ds.Snapshots[i])
	}
	tr.loop.Step()
	if err := tr.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	hugeBox := func(frames []dataset.Snapshot) {
		for i := range frames {
			frames[i].Box = [3]float64{1e18, 1e18, 1e18}
		}
	}
	for _, c := range []struct {
		name, want string
		edit       func(*ReplayCheckpoint)
	}{
		{"window capacity", "exceed", func(r *ReplayCheckpoint) { r.WindowCap = 1 << 50 }},
		{"reservoir capacity", "exceed", func(r *ReplayCheckpoint) { r.ResCap = MaxReplayCap + 1 }},
		{"huge box", "replay window frame 0", func(r *ReplayCheckpoint) { hugeBox(r.Window); hugeBox(r.Reservoir) }},
	} {
		ck, err := guard.Load[Checkpoint](path)
		if err != nil {
			t.Fatal(err)
		}
		c.edit(ck.Replay)
		tr2, err := ResumeTrainer(ck, device.New("resume", device.A100()), cfg)
		if err == nil {
			tr2.loop.Step()
			t.Fatalf("%s: ResumeTrainer accepted the checkpoint", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: ResumeTrainer error = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// Stop must drain queued frames into the replay buffer and write the final
// checkpoint.
func TestGracefulStopDrainsAndCheckpoints(t *testing.T) {
	ds, m, opt := onlineSetup(t)
	path := filepath.Join(t.TempDir(), "final.ckpt")
	tr, err := NewTrainer(m, opt, ds, TrainerConfig{
		BatchSize: 2, CheckpointPath: path, Seed: 3,
		Gate: GateConfig{Enabled: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Start()
	for i := 0; i < 8; i++ {
		if ok, err := tr.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("ingest %d: %v %v", i, ok, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tr.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if got := tr.lane.Replay().Seen(); got != 8 {
		t.Fatalf("replay saw %d frames after drain, want 8", got)
	}
	ck, err := guard.Load[Checkpoint](path)
	if err != nil {
		t.Fatalf("final checkpoint missing: %v", err)
	}
	if ck.Replay.Seen != 8 {
		t.Fatalf("final checkpoint recorded %d frames, want 8", ck.Replay.Seen)
	}
	// Stop is idempotent
	if err := tr.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}
