package optimize

import (
	"fmt"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
)

// Reducer sums per-rank partials element-wise across the ranks of a
// distributed step, in place.  *cluster.Ring implements it; a nil Reducer
// is the single-device case, where the local partials already are the
// batch sums.  A non-nil error means the collective broke and the buffer
// must not be applied.
type Reducer interface {
	Allreduce(rank int, buf []float64) error
	AllreduceScalars(rank int, buf []float64) error
}

// local is the single-device Reducer: there is nothing to sum with.
type local struct{}

func (local) Allreduce(int, []float64) error        { return nil }
func (local) AllreduceScalars(int, []float64) error { return nil }

// Covariance is the Kalman filter state a step schedule updates.  Measure
// runs one measurement's gain stage from the reduced gradient g and error
// abe — advancing λ and returning the weight increment — and defers the
// covariance refresh to drain, exactly like KalmanState.UpdateSplit.  An
// error (it names the failed collective) leaves the measurement unapplied.
// Measure may time sub-phases on pt: the schedule has started a "gain"
// phase before the call and ends it once the increment is applied.
//
// A full *KalmanState implements it; a sharded rank's state bound to its
// ring (pshard.Over) adds the P·g exchange between GainOwned and
// FinishUpdate.
type Covariance interface {
	Measure(g []float64, abe, scale float64, pt *PhaseTimer) (delta []float64, drain func(), err error)
}

// Measure implements Covariance by UpdateSplit; it never fails.
func (ks *KalmanState) Measure(g []float64, abe, scale float64, _ *PhaseTimer) ([]float64, func(), error) {
	delta, drain := ks.UpdateSplit(g, abe, scale)
	return delta, drain, nil
}

// SpanSink receives per-phase timings from a rank's step — backward,
// allreduce, gain, drain and (sharded) exchange.  Implemented by
// obs.StepRecorder; implementations must be safe for concurrent calls
// (ranks run concurrently and drains complete on background goroutines).
type SpanSink interface {
	Span(rank int, name string, start time.Time, dur time.Duration)
}

// PhaseTimer times one rank's step phases into a SpanSink.  With no sink
// every method is a single nil check.
type PhaseTimer struct {
	sink SpanSink
	rank int
	t0   time.Time
}

// Start marks the beginning of a phase.
func (pt *PhaseTimer) Start() {
	if pt.sink != nil {
		pt.t0 = time.Now()
	}
}

// End reports the phase begun at the last Start under name.
func (pt *PhaseTimer) End(name string) {
	if pt.sink != nil {
		pt.sink.Span(pt.rank, name, pt.t0, time.Since(pt.t0))
	}
}

// traced wraps a deferred covariance drain so that its execution — on a
// background goroutine when pipelined — reports a "drain" span.
func (pt *PhaseTimer) traced(drain func()) func() {
	if pt.sink == nil {
		return drain
	}
	return func() {
		d0 := time.Now()
		drain()
		pt.sink.Span(pt.rank, "drain", d0, time.Since(d0))
	}
}

// StepParams are the per-step scalars every rank of a step must agree on.
// They are derived once from the *global* batch (see FEKF.StepParams), so
// ranks holding different local shares still apply identical updates.
type StepParams struct {
	// Scale is the quasi-learning-rate factor of the global batch.
	Scale float64
	// EnergyDiv and ForceDiv are the measurement-error divisors (already
	// evaluated for the system's atom count).
	EnergyDiv, ForceDiv float64
	// ForceGroups is the number of sequential force measurement updates.
	ForceGroups int
	// Pipeline overlaps each measurement's P drain with the next group's
	// backward and allreduce (bitwise identical to the serial schedule).
	Pipeline bool
	// Spans, when non-nil, receives the step's phase timings.
	Spans SpanSink
}

// StepParams derives the per-step scalars for a global batch of bs frames
// of na atoms each.
func (f *FEKF) StepParams(bs, na int) StepParams {
	return StepParams{
		Scale:       f.Factor.Apply(bs),
		EnergyDiv:   f.EnergyDiv.Value(na),
		ForceDiv:    f.ForceDiv.Value(na),
		ForceGroups: f.ForceGroups,
		Pipeline:    f.Pipeline,
	}
}

// RankStep is the FEKF step schedule — Algorithm 1's funnel step, run by
// one rank: build the environment, backward the energy measurement,
// reduce gradient and error partials with the other ranks, apply one
// Kalman update, then ForceGroups force measurement updates the same way,
// and finally reduce the force-error diagnostic.  red == nil is the
// single-device step (FEKF.Step); distributed callers pass their ring, and
// the replicated and the sharded fleet differ only in cov.
//
// ds/idx are this rank's share of the global batch.  A nil ds or empty idx
// — or an environment build or inject failure — makes the rank contribute
// zero partials while still running every collective and applying the
// reduced updates, so replicas stay bit-identical across partial
// failures; that failure is returned at the end.  Each update is gated
// on the reduced sample or component count, so a measurement no rank
// contributed to is skipped on every rank.
//
// With p.Pipeline on, each measurement's covariance drain runs in the
// background while the next measurement's forward/backward and allreduce
// execute.  The hand-off — the drain is joined before the next gain stage,
// and each backward starts after the previous increment is applied —
// keeps the sequential semantics, so the result is bitwise identical to
// the serial order.
//
// A broken collective leaves its measurement unapplied; in-flight drains
// are joined before any return, and the error names the phase ("energy
// allreduce", "force group 2 exchange", "force-error allreduce") while
// wrapping the reducer's error.
func RankStep(red Reducer, rank int, m *deepmd.Model, cov Covariance, p StepParams, ds *dataset.Dataset, idx []int, inject func() error) (StepInfo, error) {
	if red == nil {
		red = local{}
	}
	var env *deepmd.Env
	var lab *deepmd.Labels
	var err error
	if ds != nil && len(idx) > 0 {
		env, err = deepmd.BuildBatchEnv(m.Cfg, ds, idx)
		if err == nil && inject != nil {
			err = inject()
		}
		if err == nil {
			lab = deepmd.BatchLabels(ds, idx)
		}
	}

	pt := &PhaseTimer{sink: p.Spans, rank: rank}
	nParams := m.Params.NumParams()
	// buf holds one measurement's partials: the gradient, then Σ|error|
	// and the sample or component count.  Reused by every measurement and
	// zeroed before each, so an idle rank contributes zeros.
	buf := make([]float64, nParams+2)
	wait := func() {}
	// measure reduces buf and applies its measurement unless no rank
	// contributed, returning the reduced error.
	measure := func(div float64) (float64, error) {
		pt.Start()
		if err := red.Allreduce(rank, buf); err != nil {
			return 0, fmt.Errorf("allreduce: %w", err)
		}
		pt.End("allreduce")
		if buf[nParams+1] == 0 {
			return 0, nil
		}
		abe := buf[nParams] / (buf[nParams+1] * div)
		wait()
		pt.Start()
		delta, drain, err := cov.Measure(buf[:nParams], abe, p.Scale, pt)
		if err != nil {
			return 0, err
		}
		m.Params.AddFlat(delta)
		pt.End("gain")
		wait = StartDrain(pt.traced(drain), p.Pipeline)
		return abe, nil
	}

	// ---- energy update; its drain overlaps the force forward pass.
	var out *deepmd.Output
	pt.Start()
	if lab != nil {
		out = m.Forward(env, false)
		seed, absSum := EnergySeed(out, lab)
		copy(buf, m.EnergyGrad(out, seed))
		buf[nParams], buf[nParams+1] = absSum, float64(len(idx))
	}
	pt.End("backward")
	abe, merr := measure(p.EnergyDiv)
	if out != nil {
		out.Graph.Release()
	}
	if merr != nil {
		return StepInfo{}, fmt.Errorf("energy %w", merr)
	}
	info := StepInfo{EnergyABE: abe}

	// ---- force updates: one forward with the post-energy-update weights,
	// then ForceGroups measurements whose gradients all come from this one
	// graph, the standard approximation of the reference implementation.
	var out2 *deepmd.Output
	fErr := make([]float64, 2) // Σ|ΔF| and component count, for StepInfo
	pt.Start()
	if lab != nil {
		out2 = m.Forward(env, true)
		sum, count := ForceErrorSum(out2, lab)
		fErr[0], fErr[1] = sum, float64(count)
	}
	pt.End("backward")
	finish := func() {
		wait()
		if out2 != nil {
			out2.Graph.Release()
		}
	}
	for grp := 0; grp < p.ForceGroups; grp++ {
		clear(buf)
		pt.Start()
		if out2 != nil {
			seed, absSum, count := ForceSeed(out2, lab, grp, p.ForceGroups)
			copy(buf, m.ForceGrad(out2, seed))
			buf[nParams], buf[nParams+1] = absSum, float64(count)
		}
		pt.End("backward")
		if _, merr := measure(p.ForceDiv); merr != nil {
			finish()
			return info, fmt.Errorf("force group %d %w", grp, merr)
		}
	}

	// ---- the batch-global mean absolute force error; overlaps the last
	// group's drain.
	pt.Start()
	if cerr := red.AllreduceScalars(rank, fErr); cerr != nil {
		finish()
		return info, fmt.Errorf("force-error allreduce: %w", cerr)
	}
	pt.End("allreduce")
	if fErr[1] > 0 {
		info.ForceABE = fErr[0] / fErr[1]
	}
	finish()
	return info, err
}
