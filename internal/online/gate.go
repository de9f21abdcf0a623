package online

import (
	"fekf/internal/dataset"
	"fekf/internal/deepmd"
)

// GateConfig controls ALKPU-style uncertainty gating of the ingest stream.
type GateConfig struct {
	// Enabled turns gating on; off, every queued frame reaches the replay
	// buffer.
	Enabled bool
	// Threshold is the fraction of the running mean score below which a
	// frame is considered low-information and discarded (0 accepts all).
	Threshold float64
}

// GateDecay is the EMA decay of the gate's running mean score.  It is a
// typed float64 so that 1−GateDecay is the float64 difference the EMA
// has always used, not the exact 0.05.
const GateDecay float64 = 0.95

// GateWarmup is the number of scored frames the gate always accepts while
// the filter's covariance and the score EMA spin up.
const GateWarmup = 32

// DefaultGateConfig returns the gating defaults: on, with frames admitted
// unless their uncertainty score falls below half the recent mean.
func DefaultGateConfig() GateConfig {
	return GateConfig{Enabled: true, Threshold: 0.5}
}

// Gate scores streamed frames against the Kalman filter's error
// covariance, the ALKPU idea: the diagonal of P is the filter's
// per-parameter error variance, so the variance it predicts along a
// frame's energy-gradient direction,
//
//	score = Σ_j g_j² P_jj / Σ_j g_j²,  g = ∂E/∂w,
//
// measures how much the filter still expects to learn from configurations
// like this one.  Frames scoring well below the running mean are ones the
// filter has already absorbed — training on them buys little — and are
// dropped before they reach the replay buffer.
//
// The gate is owned by the trainer goroutine: scoring runs a forward and
// an energy backward on the live training model between optimizer steps.
type Gate struct {
	cfg GateConfig
	ema float64
	n   int64 // frames scored (EMA samples)

	accepted int64
	rejected int64
}

// NewGate returns a gate with the given configuration.
func NewGate(cfg GateConfig) *Gate {
	return &Gate{cfg: cfg}
}

// Score computes the uncertainty score of one frame: the P-weighted mean
// square gradient over the plain mean square gradient.  pd is the filter's
// P diagonal aligned with the flat parameter vector.
func (g *Gate) Score(m *deepmd.Model, pd []float64, ds *dataset.Dataset, idx int) (float64, error) {
	env, err := deepmd.BuildBatchEnv(m.Cfg, ds, []int{idx})
	if err != nil {
		return 0, err
	}
	out := m.Forward(env, false)
	grad := m.EnergyGrad(out, nil)
	out.Graph.Release()
	var num, den float64
	for j, gj := range grad {
		num += gj * gj * pd[j]
		den += gj * gj
	}
	if den == 0 {
		return 0, nil
	}
	return num / den, nil
}

// Admit decides whether a frame enters the replay buffer and returns the
// score it was judged on (0 when no scoring happened).  Frames are always
// admitted while the gate is disabled, the filter has no covariance yet
// (pd nil), or the warmup window is still open; scored frames update the
// EMA whether or not they pass.
func (g *Gate) Admit(m *deepmd.Model, pd []float64, ds *dataset.Dataset, idx int) (bool, float64, error) {
	if !g.cfg.Enabled || g.cfg.Threshold <= 0 || pd == nil {
		g.accepted++
		return true, 0, nil
	}
	score, err := g.Score(m, pd, ds, idx)
	if err != nil {
		return false, 0, err
	}
	prevEMA, prevN := g.ema, g.n
	if g.n == 0 {
		g.ema = score
	} else {
		g.ema = GateDecay*g.ema + (1-GateDecay)*score
	}
	g.n++
	if prevN < GateWarmup || score >= g.cfg.Threshold*prevEMA {
		g.accepted++
		return true, score, nil
	}
	g.rejected++
	return false, score, nil
}

// EMA returns the running mean score.
func (g *Gate) EMA() float64 { return g.ema }

// GateCheckpoint is the serializable gate state.
type GateCheckpoint struct {
	EMA      float64
	N        int64
	Accepted int64
	Rejected int64
}

// Checkpoint copies the gate state.
func (g *Gate) Checkpoint() *GateCheckpoint {
	return &GateCheckpoint{EMA: g.ema, N: g.n, Accepted: g.accepted, Rejected: g.rejected}
}

// RestoreGate rebuilds a gate from a checkpoint under cfg.
func RestoreGate(ck *GateCheckpoint, cfg GateConfig) *Gate {
	g := NewGate(cfg)
	g.ema, g.n, g.accepted, g.rejected = ck.EMA, ck.N, ck.Accepted, ck.Rejected
	return g
}
