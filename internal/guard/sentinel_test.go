package guard

import (
	"math"
	"testing"
	"time"
)

// healthySample's weight and P-diagonal views span three strides, so the
// check reads indices 0, SampleStride and 2*SampleStride of each.
func healthySample() Sample {
	smp := Sample{
		Lambda:  0.994,
		Weights: make([]float64, 3*SampleStride),
		PDiag:   make([]float64, 3*SampleStride),
		Aux:     []float64{0.01, 0.02},
	}
	for i := range smp.Weights {
		smp.Weights[i] = 0.1 * float64(i%3-1)
		smp.PDiag[i] = 0.5 + float64(i%4)
	}
	return smp
}

func TestSentinelHealthyPasses(t *testing.T) {
	s := new(Sentinel)
	for step := int64(1); step <= 5; step++ {
		if ev := s.Check(step, healthySample()); ev != nil {
			t.Fatalf("step %d: unexpected divergence: %v", step, ev)
		}
	}
}

func TestSentinelCatchesEachInvariant(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Sample)
		reason string
	}{
		{"lambda NaN", func(s *Sample) { s.Lambda = math.NaN() }, ReasonLambdaNonFinite},
		{"lambda low", func(s *Sample) { s.Lambda = 1e-9 }, ReasonLambdaRange},
		{"lambda high", func(s *Sample) { s.Lambda = 1.5 }, ReasonLambdaRange},
		{"weight NaN", func(s *Sample) { s.Weights[SampleStride] = math.NaN() }, ReasonWeightNonFinite},
		{"weight Inf", func(s *Sample) { s.Weights[2*SampleStride] = math.Inf(-1) }, ReasonWeightNonFinite},
		{"weight blowup", func(s *Sample) { s.Weights[0] = 2e6 }, ReasonWeightBlowup},
		{"pdiag NaN", func(s *Sample) { s.PDiag[0] = math.NaN() }, ReasonPDiagNonFinite},
		{"pdiag blowup", func(s *Sample) { s.PDiag[2*SampleStride] = 1e9 }, ReasonPDiagBlowup},
		{"aux NaN", func(s *Sample) { s.Aux[0] = math.NaN() }, ReasonAuxNonFinite},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := new(Sentinel)
			smp := healthySample()
			tc.mutate(&smp)
			ev := s.Check(7, smp)
			if ev == nil {
				t.Fatalf("expected divergence %s, got healthy", tc.reason)
			}
			if ev.Reason != tc.reason {
				t.Fatalf("reason = %s, want %s (event %v)", ev.Reason, tc.reason, ev)
			}
			if ev.Step != 7 {
				t.Fatalf("step = %d, want 7", ev.Step)
			}
		})
	}
}

func TestSentinelUpdateNormNeedsBaseline(t *testing.T) {
	s := new(Sentinel)
	big := healthySample()
	for i := range big.Weights {
		big.Weights[i] = 1e5
	}
	// First check has no baseline: a large (but finite, in-bounds) weight
	// set passes.
	if ev := s.Check(1, big); ev != nil {
		t.Fatalf("first check should pass: %v", ev)
	}
	// A jump of 2*MaxAbsUpdate at a sampled entry against the captured
	// baseline must trip.
	big2 := healthySample()
	copy(big2.Weights, big.Weights)
	big2.Weights[SampleStride] += 2 * MaxAbsUpdate
	ev := s.Check(2, big2)
	if ev == nil || ev.Reason != ReasonUpdateBlowup {
		t.Fatalf("expected update_blowup, got %v", ev)
	}
	// After Reset (rollback), the baseline is gone: the same sample passes
	// and re-seeds.
	s.Reset()
	if ev := s.Check(3, big2); ev != nil {
		t.Fatalf("post-reset check should pass: %v", ev)
	}
}

func TestSentinelStrideSkipsEntries(t *testing.T) {
	s := new(Sentinel)
	smp := healthySample()
	for i := range smp.Weights {
		if i%SampleStride != 0 { // unsampled entries are skipped
			smp.Weights[i] = math.NaN()
		}
	}
	if ev := s.Check(1, smp); ev != nil {
		t.Fatalf("strided check should skip unsampled entries: %v", ev)
	}
	smp.Weights[SampleStride] = math.NaN() // sampled index: caught
	if ev := s.Check(2, smp); ev == nil || ev.Reason != ReasonWeightNonFinite {
		t.Fatalf("expected weight_non_finite at sampled index, got %v", ev)
	}
}

func TestHealthDegradedLifecycle(t *testing.T) {
	h := NewHealth(3)
	now := time.Now()
	if st := h.Status(now); st.Degraded {
		t.Fatal("fresh health must not be degraded")
	}
	h.NoteDivergence(&DivergenceEvent{Step: 5, Reason: ReasonWeightNonFinite})
	h.NoteRollback(2, 4)
	st := h.Status(now)
	if !st.Degraded || st.Divergences != 1 || st.Rollbacks != 1 {
		t.Fatalf("after divergence: %+v", st)
	}
	if st.LastReason != ReasonWeightNonFinite || st.LastStep != 5 ||
		st.RollbackGeneration != 2 || st.RollbackStep != 4 {
		t.Fatalf("event detail: %+v", st)
	}
	for i := 0; i < 2; i++ {
		h.NoteHealthy()
	}
	if st := h.Status(now); !st.Degraded {
		t.Fatal("2 healthy checks of 3 required: still degraded")
	}
	h.NoteHealthy()
	if st := h.Status(now); st.Degraded {
		t.Fatal("3 healthy checks clear degraded")
	}
	h.NoteWatchdog(9)
	st = h.Status(now)
	if !st.Degraded || st.WatchdogFires != 1 || st.LastReason != "step_watchdog" {
		t.Fatalf("after watchdog: %+v", st)
	}
}

func TestHealthRingAge(t *testing.T) {
	h := NewHealth(0)
	if st := h.Status(time.Now()); st.RingAgeMs != -1 {
		t.Fatalf("no checkpoint yet: age = %d, want -1", st.RingAgeMs)
	}
	at := time.Now().Add(-2 * time.Second)
	h.NoteCheckpoint(17, at)
	st := h.Status(time.Now())
	if st.RingGeneration != 17 {
		t.Fatalf("generation = %d, want 17", st.RingGeneration)
	}
	if st.RingAgeMs < 1900 || st.RingAgeMs > 10000 {
		t.Fatalf("age = %dms, want ≈2000", st.RingAgeMs)
	}
	if (*Health)(nil).Status(time.Now()) != nil {
		t.Fatal("nil Health must yield nil Status")
	}
}
