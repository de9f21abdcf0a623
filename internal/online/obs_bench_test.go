package online

import (
	"testing"
	"time"

	"fekf/internal/obs"
)

// benchStep measures one trainer step over a warm replay buffer; the cfg
// difference between the two benchmarks below is exactly the observability
// wiring, so comparing them bounds the instrumentation overhead (the
// bench-obs Makefile target asserts < 2%).
func benchStep(b *testing.B, cfg TrainerConfig) {
	tr := benchTrainer(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.loop.Step()
	}
	b.StopTimer()
	if le := tr.Stats().LastError; le != "" {
		b.Fatalf("trainer errored: %s", le)
	}
}

// benchTrainer returns the trainer benchStep times: batch 2 over a replay
// buffer of 8 admitted frames, gate off.
func benchTrainer(tb testing.TB, cfg TrainerConfig) *Trainer {
	ds, m, opt := onlineSetup(tb)
	cfg.BatchSize = 2
	cfg.SnapshotEvery = 8
	cfg.Seed = 9
	cfg.Gate = GateConfig{Enabled: false}
	tr, err := NewTrainer(m, opt, ds, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		tr.admit(ds.Snapshots[i])
	}
	return tr
}

func BenchmarkTrainStepBare(b *testing.B) {
	benchStep(b, TrainerConfig{})
}

func BenchmarkTrainStepInstrumented(b *testing.B) {
	reg := obs.NewRegistry()
	benchStep(b, TrainerConfig{
		Metrics: NewMetrics(reg),
		Trace:   obs.NewTracer(128),
	})
}

// TestInstrumentationOverheadBudget bounds the observability overhead the
// paired way: time a full step's worth of instrumentation operations
// (recorder begin, spans, publish, histogram observes) against the measured
// step time of this machine, and require < 2%.  An A/B wall-clock diff of
// the two benchmarks above drowns a sub-0.1% true overhead in scheduler
// noise; this measures the added work itself, which cannot be noisy into a
// false pass.
func TestInstrumentationOverheadBudget(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(128)
	ds, m, opt := onlineSetup(t)
	cfg := TrainerConfig{
		BatchSize: 2, SnapshotEvery: 8, Seed: 9,
		Gate:    GateConfig{Enabled: false},
		Metrics: NewMetrics(reg),
		Trace:   tracer,
	}
	tr, err := NewTrainer(m, opt, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		tr.admit(ds.Snapshots[i])
	}
	const steps = 10
	for i := 0; i < steps; i++ {
		tr.loop.Step()
	}
	if le := tr.Stats().LastError; le != "" {
		t.Fatalf("trainer errored: %s", le)
	}
	h := cfg.Metrics.StepSeconds
	stepMean := h.Sum() / float64(h.Count())

	// One step records ~6 spans plus two histogram observations; measure
	// double that to stay conservative.
	const iters = 2000
	start := time.Now()
	for i := 0; i < iters; i++ {
		rec := tracer.Begin()
		t0 := rec.StartTime()
		for s := 0; s < 12; s++ {
			rec.Span(-1, "bench", t0, time.Microsecond)
		}
		rec.End(int64(i))
		h.Observe(0.001)
		h.Observe(0.001)
		h.Observe(0.001)
		h.Observe(0.001)
	}
	instrPerStep := time.Since(start).Seconds() / iters

	if instrPerStep > 0.02*stepMean {
		t.Errorf("instrumentation costs %.3gs per step, > 2%% of the %.3gs step time", instrPerStep, stepMean)
	}
	t.Logf("instrumentation %.3gs/step vs step %.3gs (%.4f%%)", instrPerStep, stepMean, 100*instrPerStep/stepMean)
}
