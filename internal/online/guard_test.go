package online

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"fekf/internal/device"
	"fekf/internal/guard"
	"fekf/internal/obs"
)

// assertTrainersBitwise fails unless a and b hold bitwise-identical weights,
// λ schedule position, update counters and P blocks.
func assertTrainersBitwise(t *testing.T, a, b *Trainer, when string) {
	t.Helper()
	wa, wb := a.model.Params.FlattenValues(), b.model.Params.FlattenValues()
	if len(wa) != len(wb) {
		t.Fatalf("%s: weight counts differ: %d vs %d", when, len(wa), len(wb))
	}
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("%s: weight %d differs: %v vs %v", when, i, wa[i], wb[i])
		}
	}
	if a.opt.Lambda() != b.opt.Lambda() {
		t.Fatalf("%s: λ differs: %v vs %v", when, a.opt.Lambda(), b.opt.Lambda())
	}
	if a.opt.Updates() != b.opt.Updates() {
		t.Fatalf("%s: update counters differ: %d vs %d", when, a.opt.Updates(), b.opt.Updates())
	}
	if d := a.opt.State().PDrift(b.opt.State()); d != 0 {
		t.Fatalf("%s: P drift %g, want exactly 0", when, d)
	}
}

// The tentpole recovery path: a NaN poisoned into the weights at step 5 must
// trip the sentinel and roll the trainer back — bitwise — to the newest ring
// generation, after which it advances in lockstep with an uninjected twin
// resumed from that same generation.
func TestGuardRollbackBitwiseTwin(t *testing.T) {
	ds, m, opt := onlineSetup(t)
	path := filepath.Join(t.TempDir(), "ckpt.gob")
	trace := obs.NewTracer(16)
	cfg := TrainerConfig{
		BatchSize: 2, Seed: 9,
		CheckpointPath: path, CheckpointEvery: 2, CheckpointKeep: 3,
		Guard: guard.SentinelConfig{Enabled: true},
		Chaos: guard.ChaosConfig{PoisonStep: 5},
		Gate:  GateConfig{Enabled: false},
		Trace: trace,
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
	// CheckpointEvery 2 → ring generations 1 (step 2) and 2 (step 4).
	ck, seq, quarantined, err := guard.LoadNewest[Checkpoint](path, 3)
	if err != nil || len(quarantined) != 0 {
		t.Fatalf("load newest: seq=%d q=%v err=%v", seq, quarantined, err)
	}
	if seq != 2 || ck.Steps != 4 {
		t.Fatalf("newest generation seq=%d steps=%d, want 2/4", seq, ck.Steps)
	}
	twinCfg := cfg
	twinCfg.CheckpointPath, twinCfg.CheckpointEvery, twinCfg.CheckpointKeep = "", 0, 0
	twinCfg.Chaos = guard.ChaosConfig{}
	twinCfg.Trace = nil
	twin, err := ResumeTrainer(ck, device.New("twin", device.A100()), twinCfg)
	if err != nil {
		t.Fatal(err)
	}

	// Step 5 poisons the weights; the sentinel must catch it and roll back.
	tr.loop.Step()
	if got := tr.loop.Steps.Load(); got != 4 {
		t.Fatalf("after rollback at step %d, want 4", got)
	}
	st := tr.Stats()
	if st.Guard == nil {
		t.Fatal("Stats().Guard missing with sentinel enabled")
	}
	if st.Guard.Divergences != 1 || st.Guard.Rollbacks != 1 || !st.Guard.Degraded {
		t.Fatalf("guard status after divergence: %+v", st.Guard)
	}
	if st.Guard.LastReason != guard.ReasonWeightNonFinite || st.Guard.LastStep != 5 {
		t.Fatalf("divergence attribution: %+v", st.Guard)
	}
	if st.Guard.RollbackGeneration != 2 || st.Guard.RollbackStep != 4 {
		t.Fatalf("rollback target: %+v", st.Guard)
	}
	if !strings.Contains(st.LastError, guard.ReasonWeightNonFinite) {
		t.Fatalf("last error %q does not carry the divergence reason", st.LastError)
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
	// The published snapshot was refreshed at the rolled-back step and is
	// clean — prediction availability never sees the poisoned weights.
	if snap := tr.Snapshot(); snap.Step != 4 {
		t.Fatalf("post-rollback snapshot at step %d, want 4", snap.Step)
	}

	assertTrainersBitwise(t, tr, twin, "after rollback")

	// The replay RNG resumed at the checkpointed position on both sides,
	// so the recovered trainer and the twin draw the same minibatches and
	// stay in bitwise lockstep. The chaos injection is one-shot: the
	// re-run of step 5 is clean.
	for i := 0; i < 2; i++ {
		tr.loop.Step()
		twin.loop.Step()
	}
	if tr.loop.Steps.Load() != 6 || twin.loop.Steps.Load() != 6 {
		t.Fatalf("post-recovery steps: %d vs %d, want 6", tr.loop.Steps.Load(), twin.loop.Steps.Load())
	}
	if got := tr.Stats().Guard.Divergences; got != 1 {
		t.Fatalf("re-run of the poisoned step diverged again: %d events", got)
	}
	assertTrainersBitwise(t, tr, twin, "two steps past rollback")
}

// Satellite 3: loading must quarantine torn and bit-flipped generations with
// a typed error trail and fall back to the newest valid one, and a corrupt
// framed file must surface guard.ErrCorrupt, not an opaque gob error.
func TestLoadNewestCheckpointQuarantinesAndFallsBack(t *testing.T) {
	ds, m, opt := onlineSetup(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.gob")
	cfg := TrainerConfig{
		BatchSize: 2, Seed: 4,
		CheckpointPath: path, CheckpointEvery: 1, CheckpointKeep: 3,
		Gate: GateConfig{Enabled: false},
	}
	tr, err := NewTrainer(m, opt, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tr.admit(ds.Snapshots[i])
	}
	for i := 0; i < 3; i++ {
		tr.loop.Step()
	}
	ring := guard.NewRing(path, 3)
	// A valid framed generation loads through the plain single-file API too.
	if ck, err := guard.Load[Checkpoint](ring.GenPath(1)); err != nil || ck.Steps != 1 {
		t.Fatalf("framed load: steps=%v err=%v", ck, err)
	}
	// Tear the newest write short and flip a payload byte in the second.
	if err := guard.Truncate(ring.GenPath(3), -7); err != nil {
		t.Fatal(err)
	}
	if err := guard.FlipByte(ring.GenPath(2), -3); err != nil {
		t.Fatal(err)
	}
	ck, seq, quarantined, err := guard.LoadNewest[Checkpoint](path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 || ck.Steps != 1 {
		t.Fatalf("fallback landed on seq=%d steps=%d, want 1/1", seq, ck.Steps)
	}
	if len(quarantined) != 2 {
		t.Fatalf("quarantined %v, want the two corrupt generations", quarantined)
	}
	tr2, err := ResumeTrainer(ck, device.New("q", device.A100()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.loop.Steps.Load() != 1 {
		t.Fatalf("resumed from survivor at step %d, want 1", tr2.loop.Steps.Load())
	}
	// The corrupt files fail with the typed sentinel error.
	for _, p := range quarantined {
		if _, err := guard.Load[Checkpoint](p + ".corrupt"); !errors.Is(err, guard.ErrCorrupt) {
			t.Fatalf("corrupt checkpoint %s: err = %v, want guard.ErrCorrupt", p, err)
		}
	}

	// Legacy single-file checkpoints still resolve (sequence 0).
	legacy := filepath.Join(dir, "legacy.ckpt")
	if err := tr.WriteCheckpoint(legacy); err != nil {
		t.Fatal(err)
	}
	lck, lseq, _, err := guard.LoadNewest[Checkpoint](legacy, 3)
	if err != nil || lseq != 0 || lck.Steps != 3 {
		t.Fatalf("legacy fallback: seq=%d steps=%v err=%v", lseq, lck, err)
	}
}

// With the sentinel on but no ring configured, a divergence degrades the
// trainer and records the failed rollback instead of crashing the loop.
func TestGuardDivergenceWithoutRingDegrades(t *testing.T) {
	ds, m, opt := onlineSetup(t)
	tr, err := NewTrainer(m, opt, ds, TrainerConfig{
		BatchSize: 2, Seed: 6,
		Guard: guard.SentinelConfig{Enabled: true},
		Chaos: guard.ChaosConfig{PoisonStep: 2, PoisonInf: true},
		Gate:  GateConfig{Enabled: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tr.admit(ds.Snapshots[i])
	}
	tr.loop.Step()
	tr.loop.Step() // poisoned; no ring → rollback must fail loudly but safely
	st := tr.Stats()
	if st.Guard == nil || st.Guard.Divergences != 1 || st.Guard.Rollbacks != 0 {
		t.Fatalf("guard status: %+v", st.Guard)
	}
	if !st.Guard.Degraded {
		t.Fatal("unrecovered divergence must leave the trainer degraded")
	}
	if !strings.Contains(st.LastError, "rollback") {
		t.Fatalf("last error %q does not mention the failed rollback", st.LastError)
	}
}
