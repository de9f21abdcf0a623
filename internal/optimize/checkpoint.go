package optimize

import (
	"fmt"
	"math"

	"fekf/internal/deepmd"
	"fekf/internal/device"
)

// KalmanCheckpoint is the serializable snapshot of a KalmanState: the
// filter configuration, the position of the λ memory-factor schedule, the
// measurement-update counter and every error-covariance block, row-major.
// Restoring it resumes the filter bitwise — the next measurement update
// computes exactly the values the uninterrupted run would have.
type KalmanCheckpoint struct {
	Cfg     KalmanConfig
	Lambda  float64
	Updates int
	Sizes   []int       // per-block parameter counts, for structural validation
	P       [][]float64 // per-block covariance values, row-major
}

// Checkpoint deep-copies a full filter state; a sharded rank's rows are
// checkpointed by pshard.BuildCheckpoint instead.  It must not be called
// while a covariance drain is in flight (between UpdateSplit and its
// drain); the optimizers' Step never returns in that window, so any caller
// that serializes with Step is safe.
func (ks *KalmanState) Checkpoint() *KalmanCheckpoint {
	if ks.draining {
		panic("optimize: Checkpoint during an in-flight covariance drain")
	}
	if !ks.ownsAll() {
		panic("optimize: Checkpoint of a state that owns only some rows of P")
	}
	ck := &KalmanCheckpoint{Cfg: ks.Cfg, Lambda: ks.Lambda, Updates: ks.Updates}
	for i, b := range ks.Blocks {
		ck.Sizes = append(ck.Sizes, b.Size())
		ck.P = append(ck.P, append([]float64(nil), ks.P[i].Data...))
	}
	return ck
}

// RestoreKalmanState rebuilds a KalmanState on dev from a checkpoint,
// validating that the block structure derived from layerSizes matches the
// one the checkpoint was taken from and that every P block is bitwise
// symmetric.  Validation runs before anything is allocated on dev, so a
// rejected checkpoint leaves the device's live memory unchanged.
func RestoreKalmanState(ck *KalmanCheckpoint, layerSizes []int, dev *device.Device) (*KalmanState, error) {
	blocks := SplitBlocks(layerSizes, ck.Cfg.BlockSize)
	if len(blocks) != len(ck.Sizes) {
		return nil, fmt.Errorf("optimize: checkpoint has %d blocks, model wants %d", len(ck.Sizes), len(blocks))
	}
	for i, b := range blocks {
		if b.Size() != ck.Sizes[i] {
			return nil, fmt.Errorf("optimize: checkpoint block %d has %d params, model wants %d", i, ck.Sizes[i], b.Size())
		}
	}
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	ks := NewKalmanState(ck.Cfg, layerSizes, dev)
	for i := range ks.P {
		copy(ks.P[i].Data, ck.P[i])
	}
	ks.Lambda = ck.Lambda
	ks.Updates = ck.Updates
	return ks, nil
}

// Validate checks a decoded checkpoint on its own: one P block per size,
// each holding size² values, each bitwise symmetric.  The row-walk drain
// (tensor.PUpdateFusedSlab) relies on that symmetry and does not restore
// it, so an asymmetric P must not enter the filter.
func (ck *KalmanCheckpoint) Validate() error {
	if len(ck.P) != len(ck.Sizes) {
		return fmt.Errorf("optimize: checkpoint has %d P blocks for %d sizes", len(ck.P), len(ck.Sizes))
	}
	for b, p := range ck.P {
		n := ck.Sizes[b]
		if n < 0 || n > len(p) || n*n != len(p) {
			return fmt.Errorf("optimize: checkpoint block %d holds %d values, want %d²", b, len(p), n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if math.Float64bits(p[i*n+j]) != math.Float64bits(p[j*n+i]) {
					return fmt.Errorf("optimize: checkpoint block %d is not symmetric: P[%d][%d] = %v, P[%d][%d] = %v",
						b, i, j, p[i*n+j], j, i, p[j*n+i])
				}
			}
		}
	}
	return nil
}

// PDiagonal copies the diagonal of the block-diagonal P into a vector
// aligned with the flat parameter ordering.  The diagonal is the filter's
// per-parameter error variance — the uncertainty signal ALKPU-style frame
// gating scores streamed configurations against.  A state that owns only
// some rows fills those and leaves the others 0.
func (ks *KalmanState) PDiagonal() []float64 {
	if len(ks.Blocks) == 0 {
		return nil
	}
	out := make([]float64, len(ks.pg))
	for si, s := range ks.Slabs {
		lo := ks.Blocks[s.Block].Lo
		for r := 0; r < s.Rows(); r++ {
			out[lo+s.RowLo+r] = ks.P[si].At(r, s.RowLo+r)
		}
	}
	return out
}

// PDrift returns the maximum absolute element-wise difference between this
// filter's covariance blocks and other's — the replicated-fleet invariant
// checked after every distributed step (zero when the funnel-aggregated
// no-P-communication schedule holds).  A structural mismatch (different
// block count or shapes, or a nil other) reports +Inf.  Neither state may
// have a covariance drain in flight.
func (ks *KalmanState) PDrift(other *KalmanState) float64 {
	if other == nil || len(ks.P) != len(other.P) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range ks.P {
		a, b := ks.P[i].Data, other.P[i].Data
		if len(a) != len(b) {
			return math.Inf(1)
		}
		for j := range a {
			if d := math.Abs(a[j] - b[j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// FEKFCheckpoint is the serializable state of a FEKF optimizer: the
// hyper-parameters that shape the update schedule plus the Kalman state
// (nil when no step has been taken yet).  Pipeline mode is deliberately
// absent — it is bitwise neutral, so the restored optimizer pipelines, as
// a new one does.
type FEKFCheckpoint struct {
	Name        string
	Factor      QuasiLRFactor
	ForceGroups int
	EnergyDiv   TrustDiv
	ForceDiv    TrustDiv
	KCfg        KalmanConfig
	Kalman      *KalmanCheckpoint
}

// Checkpoint captures the optimizer for a later bitwise resume.  Safe
// whenever Step is not executing.
func (f *FEKF) Checkpoint() *FEKFCheckpoint {
	ck := &FEKFCheckpoint{
		Name:        f.name,
		Factor:      f.Factor,
		ForceGroups: f.ForceGroups,
		EnergyDiv:   f.EnergyDiv,
		ForceDiv:    f.ForceDiv,
		KCfg:        f.KCfg,
	}
	if f.ks != nil {
		ck.Kalman = f.ks.Checkpoint()
	}
	return ck
}

// RestoreFEKF reconstructs a FEKF from a checkpoint for model m: the λ
// schedule, update counter and every P block resume exactly where the
// checkpointed optimizer stopped.  The Kalman block structure is
// re-derived from m's layer sizes and validated against the checkpoint.
func RestoreFEKF(ck *FEKFCheckpoint, m *deepmd.Model) (*FEKF, error) {
	f := &FEKF{
		KCfg:        ck.KCfg,
		Factor:      ck.Factor,
		ForceGroups: ck.ForceGroups,
		EnergyDiv:   ck.EnergyDiv,
		ForceDiv:    ck.ForceDiv,
		Pipeline:    true,
		name:        ck.Name,
	}
	if f.name == "" {
		f.name = "FEKF"
	}
	if f.ForceGroups < 1 {
		f.ForceGroups = 4
	}
	if ck.Kalman != nil {
		ks, err := RestoreKalmanState(ck.Kalman, m.Params.LayerSizes(), m.Dev)
		if err != nil {
			return nil, err
		}
		f.ks = ks
	}
	return f, nil
}

// PDiagonal returns the current P diagonal aligned with the flat parameter
// vector, or nil before the first step (no curvature information yet).
func (f *FEKF) PDiagonal() []float64 {
	if f.ks == nil {
		return nil
	}
	return f.ks.PDiagonal()
}

// Lambda returns the current memory factor λ: the schedule position after
// the updates taken so far, or the configured λ₀ before the first step.
func (f *FEKF) Lambda() float64 {
	if f.ks == nil {
		return f.KCfg.Lambda0
	}
	return f.ks.Lambda
}

// Updates returns the number of Kalman measurement updates applied (each
// Step performs 1 + ForceGroups of them); 0 before the first step.
func (f *FEKF) Updates() int {
	if f.ks == nil {
		return 0
	}
	return f.ks.Updates
}
