package online

import "testing"

func TestGateAdmitsWhenDisabledOrBlind(t *testing.T) {
	g := NewGate(GateConfig{Enabled: false})
	ok, score, err := g.Admit(nil, []float64{1}, nil, 0)
	if !ok || score != 0 || err != nil {
		t.Fatalf("disabled gate: %v %v %v", ok, score, err)
	}
	g = NewGate(GateConfig{Enabled: true, Threshold: 0.5})
	// before the first optimizer step the filter has no covariance (pd nil)
	ok, _, err = g.Admit(nil, nil, nil, 0)
	if !ok || err != nil {
		t.Fatalf("gate without covariance: %v %v", ok, err)
	}
	if g.accepted != 1 {
		t.Fatalf("accepted %d, want 1", g.accepted)
	}
}

func TestGateScoresAgainstPDiagonal(t *testing.T) {
	ds, m, _ := onlineSetup(t)
	g := NewGate(GateConfig{Enabled: true, Threshold: 0.5})
	n := m.NumParams()
	high := make([]float64, n) // filter claims high variance everywhere
	for i := range high {
		high[i] = 1
	}
	low := make([]float64, n) // filter claims it has learned everything

	// warm-up: always admitted, seeds the EMA near 1 — even a frame the
	// filter claims to know scores 0 and still gets in
	for i := 0; i < GateWarmup; i++ {
		known := i == GateWarmup-1
		pd := high
		if known {
			pd = low
		}
		ok, score, err := g.Admit(m, pd, ds, i%ds.Len())
		if err != nil || !ok {
			t.Fatalf("warm-up frame %d rejected: %v %v", i, ok, err)
		}
		if !known && (score < 0.999 || score > 1.001) { // Σg²·1/Σg² ≡ 1
			t.Fatalf("uniform P diagonal must score 1, got %v", score)
		}
	}
	// past the warm-up: zero predicted variance → score 0 → far below the
	// EMA → out
	ok, score, err := g.Admit(m, low, ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok || score != 0 {
		t.Fatalf("zero-variance frame admitted (score %v)", score)
	}
	// informative again → back above threshold·EMA → admitted
	ok, _, err = g.Admit(m, high, ds, 2)
	if err != nil || !ok {
		t.Fatalf("informative frame rejected: %v %v", ok, err)
	}
	if g.accepted != GateWarmup+1 || g.rejected != 1 {
		t.Fatalf("counters: accepted %d rejected %d", g.accepted, g.rejected)
	}
	if !(g.EMA() > 0 && g.EMA() < 1) {
		t.Fatalf("EMA %v not between the observed scores", g.EMA())
	}
}

func TestGateCheckpointRoundTrip(t *testing.T) {
	g := NewGate(DefaultGateConfig())
	g.ema, g.n, g.accepted, g.rejected = 0.25, 10, 8, 2
	got := RestoreGate(g.Checkpoint(), DefaultGateConfig())
	if got.EMA() != 0.25 || got.n != 10 || got.accepted != 8 || got.rejected != 2 {
		t.Fatalf("restored gate state %v %d %d %d", got.EMA(), got.n, got.accepted, got.rejected)
	}
}
