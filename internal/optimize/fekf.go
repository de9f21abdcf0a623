package optimize

import (
	"errors"
	"math"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
)

// FEKF is the paper's Fast Extended Kalman Filter (Algorithm 1): a
// funnel-shaped ("aggregation-then-computing") multi-sample minibatch EKF.
// Gradients and absolute errors are reduced over the batch before the
// Kalman update, so every sample shares one P, and the weight increment
// carries the √bs quasi-learning-rate factor.
//
// RLEKF is recovered as the degenerate single-sample instance (batch size
// 1, factor 1): construct it with NewRLEKF and drive it with bs=1.
type FEKF struct {
	KCfg KalmanConfig
	// Factor is the quasi-learning-rate rule (√bs by default; Figure 4
	// ablates 1 and bs).
	Factor QuasiLRFactor
	// ForceGroups is the number of sequential force measurement updates
	// per iteration (paper: 4).
	ForceGroups int
	// EnergyDiv and ForceDiv divide the energy and force measurement
	// errors fed to the filter, the trust-region damping knob of the
	// reference implementation (which divides both by the atom count,
	// matched to its 10k-70k-sample datasets).  The repo defaults —
	// √Na for energy, 1 for force — reach the same optima in
	// proportionally fewer updates at this reproduction's dataset sizes.
	EnergyDiv, ForceDiv TrustDiv
	// Pipeline overlaps each measurement's covariance drain with the next
	// measurement's forward/backward (the two-stage force-group pipeline);
	// results are bitwise identical to the serial order.  On by default.
	Pipeline bool

	name string
	ks   *KalmanState
}

// TrustDiv selects the measurement-error damping rule.
type TrustDiv int

// Damping rules for the Kalman measurement error.
const (
	// DivSqrtAtoms divides errors by √Na (repo default).
	DivSqrtAtoms TrustDiv = iota
	// DivAtoms divides errors by Na (the reference implementation's rule,
	// matched to its 10k-70k-sample datasets).
	DivAtoms
	// DivOne feeds raw mean errors (aggressive).
	DivOne
)

// Value returns the divisor for a system of na atoms.
func (d TrustDiv) Value(na int) float64 {
	switch d {
	case DivAtoms:
		return float64(na)
	case DivOne:
		return 1
	default:
		return math.Sqrt(float64(na))
	}
}

// NewFEKF returns the paper-default FEKF optimizer.
func NewFEKF() *FEKF {
	return &FEKF{
		KCfg:        DefaultKalmanConfig(),
		Factor:      FactorSqrtBS,
		ForceGroups: 4,
		EnergyDiv:   DivSqrtAtoms,
		ForceDiv:    DivAtoms,
		Pipeline:    true,
		name:        "FEKF",
	}
}

// NewRLEKF returns the instance-by-instance RLEKF baseline: identical
// update rule at batch size 1 with unit factor.  Drive it with bs=1.
func NewRLEKF() *FEKF {
	return &FEKF{
		KCfg:        DefaultKalmanConfig(),
		Factor:      FactorOne,
		ForceGroups: 4,
		EnergyDiv:   DivSqrtAtoms,
		ForceDiv:    DivAtoms,
		Pipeline:    true,
		name:        "RLEKF",
	}
}

// Name implements Optimizer.
func (f *FEKF) Name() string { return f.name }

// State exposes the Kalman state (nil before the first step); used by the
// experiment harness for memory and block-structure reporting.
func (f *FEKF) State() *KalmanState { return f.ks }

// PBytes returns the device bytes resident in the covariance blocks (0
// before the Kalman state exists).
func (f *FEKF) PBytes() int64 {
	if f.ks == nil {
		return 0
	}
	return f.ks.PBytes()
}

// InitState creates the Kalman state ahead of the first Step and returns
// it (a no-op once initialized).
func (f *FEKF) InitState(m *deepmd.Model) *KalmanState {
	if f.ks == nil {
		f.ks = NewKalmanState(f.KCfg, m.Params.LayerSizes(), m.Dev)
	}
	return f.ks
}

// Step implements Optimizer: one energy measurement update followed by
// ForceGroups force measurement updates, all on batch-reduced gradients
// and errors (the funnel dataflow of Figure 3(b)) — the step schedule
// RankStep on a single device.  With Pipeline on, each measurement's
// covariance drain overlaps the next measurement's forward/backward,
// bitwise identical to the serial order.
func (f *FEKF) Step(m *deepmd.Model, ds *dataset.Dataset, idx []int) (StepInfo, error) {
	if len(idx) == 0 {
		return StepInfo{}, errors.New("optimize: FEKF step on an empty batch")
	}
	p := f.StepParams(len(idx), ds.Snapshots[idx[0]].NumAtoms())
	return RankStep(nil, 0, m, f.InitState(m), p, ds, idx, nil)
}
