package optimize

import (
	"math"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/tensor"
)

// Optimizer advances the model by one training step on the given
// minibatch (snapshot indices into ds).  Implementations build the
// environments they need, which lets the fusiform Naive-EKF process
// samples individually while FEKF and Adam batch them.
type Optimizer interface {
	Name() string
	Step(m *deepmd.Model, ds *dataset.Dataset, idx []int) (StepInfo, error)
}

// StartDrain schedules the deferred covariance refresh returned by
// KalmanState.UpdateSplit.  With pipelined=false it drains inline,
// recovering the strictly serial measurement order of Algorithm 1; with
// pipelined=true the drain runs on a background goroutine so the caller
// can overlap the next measurement's forward/backward — or, across ranks,
// its ring allreduce — with the P refresh.  The returned wait blocks
// until the drain has completed and must be called before the next
// UpdateSplit on the same state (the hand-off that keeps the sequential
// measurement semantics: the next gain stage reads the refreshed P, and
// the weight vector it differentiates against is the post-update weight
// of the previous group).
func StartDrain(drain func(), pipelined bool) (wait func()) {
	if !pipelined {
		drain()
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		drain()
	}()
	return func() { <-done }
}

// StepInfo reports what a step saw before updating the weights.
type StepInfo struct {
	// EnergyABE is the mean absolute per-atom energy error.
	EnergyABE float64
	// ForceABE is the mean absolute force-component error.
	ForceABE float64
	// Loss is the scalar objective for gradient-descent optimizers
	// (zero for Kalman optimizers, which have no explicit loss).
	Loss float64
}

// energyMeasurement derives the Kalman energy-update inputs from a batch
// output, following Algorithm 1 lines 3-7: the gradient seed is the sign
// vector σ_b of the *summed* signed predictions (Ŷ.sum().backward() — the
// sum, not the mean, which is what makes the Kalman gain K = Pg/(λ+gᵀPg)
// self-normalizing), and ABE is the mean absolute per-atom energy error.
func energyMeasurement(out *deepmd.Output, lab *deepmd.Labels, div float64) (seed *tensor.Dense, abe float64) {
	seed, sum := EnergySeed(out, lab)
	return seed, sum / (float64(out.Energies.Rows()) * div)
}

// EnergySeed returns the per-image sign vector σ_b of the energy
// measurement and the raw Σ|ΔE| over the batch.  The distributed trainer
// allreduces these unscaled partials before forming the Kalman inputs.
func EnergySeed(out *deepmd.Output, lab *deepmd.Labels) (seed *tensor.Dense, absSum float64) {
	b := out.Energies.Rows()
	seed = tensor.New(b, 1)
	for i := 0; i < b; i++ {
		pred := out.Energies.Value.Data[i]
		label := lab.Energy.Data[i]
		sign := 1.0
		if pred >= label {
			sign = -1
		}
		seed.Data[i] = sign
		absSum += math.Abs(label - pred)
	}
	return seed, absSum
}

// forceMeasurement derives the Kalman force-update inputs for one of the
// nGroups interleaved force-component groups: the seed is the per-component
// sign vector of the summed signed predictions over the group, and ABE is
// the mean absolute force error of the group scaled by 1/Na, the reference
// implementation's convention.
func forceMeasurement(out *deepmd.Output, lab *deepmd.Labels, group, nGroups int, div float64) (seed *tensor.Dense, abe float64) {
	seed, sum, count := ForceSeed(out, lab, group, nGroups)
	if count == 0 {
		return seed, 0
	}
	return seed, sum / (float64(count) * div)
}

// ForceSeed returns the per-component sign vector of one force group, the
// raw Σ|ΔF| over the group, and the component count; the distributed
// trainer allreduces the unscaled partials.
func ForceSeed(out *deepmd.Output, lab *deepmd.Labels, group, nGroups int) (seed *tensor.Dense, absSum float64, count int) {
	n := out.Forces.Rows()
	seed = tensor.New(n, 1)
	for c := group; c < n; c += nGroups {
		pred := out.Forces.Value.Data[c]
		label := lab.Force.Data[c]
		sign := 1.0
		if pred >= label {
			sign = -1
		}
		seed.Data[c] = sign
		absSum += math.Abs(label - pred)
		count++
	}
	return seed, absSum, count
}

// ForceErrorSum returns the raw Σ|ΔF| over every force component together
// with the component count; the distributed trainer allreduces these
// partials so its StepInfo.ForceABE reports the batch-global mean the
// single-device Step contract promises.
func ForceErrorSum(out *deepmd.Output, lab *deepmd.Labels) (absSum float64, count int) {
	n := out.Forces.Rows()
	for i := 0; i < n; i++ {
		absSum += math.Abs(out.Forces.Value.Data[i] - lab.Force.Data[i])
	}
	return absSum, n
}

// meanAbsForceError is a diagnostic over all components.
func meanAbsForceError(out *deepmd.Output, lab *deepmd.Labels) float64 {
	s, n := ForceErrorSum(out, lab)
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
