// Package guard is the self-healing layer of the FEKF training stack: a
// numerical health sentinel that catches covariance blow-up and weight
// divergence the step after they happen, a checksummed checkpoint ring
// that keeps the last K known-good generations on disk (CRC32-C framed,
// torn or bit-flipped files quarantined at load), and deterministic chaos
// injectors that drive the recovery paths under test.
//
// The package is a leaf: it knows nothing about models, optimizers or
// fleets.  Callers feed the sentinel flat float64 views of their state
// (weights, λ, a P diagonal) and their checkpoint structs into a Keeper,
// which runs the save and rollback choreography for the online trainer and
// the fleet conductor alike; each caller supplies only how a decoded
// checkpoint is applied in place.
package guard

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// DivergenceEvent is the typed verdict of a failed health check: which
// step diverged, which invariant broke, and the offending value.  It is
// an error so it can flow through the existing last-error plumbing.
type DivergenceEvent struct {
	Step   int64   // training step the check ran after
	Reason string  // one of the Reason* constants
	Detail string  // human-readable invariant description
	Value  float64 // the offending value (NaN/Inf for non-finite checks)
	Index  int     // flat index of the offending entry, -1 for scalars
}

// Divergence reasons, one per sentinel invariant.
const (
	ReasonLambdaNonFinite = "lambda_non_finite"
	ReasonLambdaRange     = "lambda_out_of_range"
	ReasonWeightNonFinite = "weight_non_finite"
	ReasonWeightBlowup    = "weight_blowup"
	ReasonUpdateBlowup    = "update_blowup"
	ReasonPDiagNonFinite  = "pdiag_non_finite"
	ReasonPDiagBlowup     = "pdiag_blowup"
	ReasonAuxNonFinite    = "aux_non_finite"
)

func (e *DivergenceEvent) Error() string {
	return fmt.Sprintf("guard: divergence at step %d: %s (%s, value %g, index %d)",
		e.Step, e.Reason, e.Detail, e.Value, e.Index)
}

// SentinelConfig switches the per-step health check.  The zero value is
// disabled; the invariants it checks are the package's fixed bounds.
type SentinelConfig struct {
	// Enabled turns the per-step health check on.
	Enabled bool
}

// The sentinel's bounds.
const (
	// MaxAbsWeight bounds |w_i|: trained interatomic potentials live
	// within a few orders of magnitude of unity, so a million is far past
	// any recoverable state.
	MaxAbsWeight = 1e6
	// MaxAbsUpdate bounds the per-step change |w_i - w_i'| over the
	// sampled entries: a Kalman gain that moves a weight by a thousand in
	// one step has lost the plot even if the value is still finite.
	MaxAbsUpdate = 1e3
	// MaxPDiag bounds the covariance diagonal: P starts at the identity
	// prior and contracts; growth past this is the EKF covariance
	// blow-up failure mode.
	MaxPDiag = 1e8
	// LambdaMin and LambdaMax bound the memory factor: the schedule
	// drives λ monotonically toward 1 from below.
	LambdaMin, LambdaMax = 1e-6, 1.0
	// SampleStride is the stride of the check's reads: every
	// SampleStride-th entry of the weight and P-diagonal views, index 0
	// first, keeping it O(n/stride) so it can run after every step.
	SampleStride = 64
)

// Sample is one step's health view: the scalar filter state plus flat
// float64 windows onto the weights and the covariance diagonal.  The
// slices are read-only borrows; the sentinel copies what it keeps.
type Sample struct {
	Lambda  float64
	Weights []float64
	PDiag   []float64
	// Aux carries per-step scalar outputs (ABE errors and the like); any
	// non-finite entry is a divergence regardless of magnitude.
	Aux []float64
}

// Sentinel runs the cheap post-step health check; the zero value is ready.
// Not safe for concurrent use: one sentinel belongs to one conductor or
// trainer loop.
type Sentinel struct {
	prev []float64 // strided weight sample from the last healthy check
}

// Check validates one step's sample against the package's bounds,
// returning nil when healthy.  On a healthy check the strided weight
// sample is retained as the baseline for the next update-norm check; on a
// divergence the baseline is left untouched (call Reset after rolling
// back).
func (s *Sentinel) Check(step int64, smp Sample) *DivergenceEvent {
	ev := func(reason, detail string, v float64, idx int) *DivergenceEvent {
		return &DivergenceEvent{Step: step, Reason: reason, Detail: detail, Value: v, Index: idx}
	}
	if math.IsNaN(smp.Lambda) || math.IsInf(smp.Lambda, 0) {
		return ev(ReasonLambdaNonFinite, "memory factor λ is non-finite", smp.Lambda, -1)
	}
	if smp.Lambda < LambdaMin || smp.Lambda > LambdaMax {
		return ev(ReasonLambdaRange,
			fmt.Sprintf("memory factor λ outside [%g, %g]", LambdaMin, LambdaMax),
			smp.Lambda, -1)
	}
	for i, v := range smp.Aux {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return ev(ReasonAuxNonFinite, "per-step scalar output is non-finite", v, i)
		}
	}
	const stride = SampleStride
	for i := 0; i < len(smp.PDiag); i += stride {
		v := smp.PDiag[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return ev(ReasonPDiagNonFinite, "covariance diagonal entry is non-finite", v, i)
		}
		if v > MaxPDiag {
			return ev(ReasonPDiagBlowup,
				fmt.Sprintf("covariance diagonal entry exceeds %g", MaxPDiag), v, i)
		}
	}
	// One pass over the strided weights: finiteness, magnitude, and the
	// per-step delta against the baseline captured by the last healthy
	// check (skipped when the parameter count changed, e.g. across a
	// restore).
	n := (len(smp.Weights) + stride - 1) / stride
	havePrev := len(s.prev) == n
	if cap(s.prev) < n {
		s.prev = make([]float64, n)
	}
	next := s.prev[:n]
	for k, i := 0, 0; i < len(smp.Weights); k, i = k+1, i+stride {
		v := smp.Weights[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return ev(ReasonWeightNonFinite, "weight is non-finite", v, i)
		}
		if math.Abs(v) > MaxAbsWeight {
			return ev(ReasonWeightBlowup,
				fmt.Sprintf("|weight| exceeds %g", MaxAbsWeight), v, i)
		}
		if havePrev {
			if d := math.Abs(v - next[k]); d > MaxAbsUpdate {
				return ev(ReasonUpdateBlowup,
					fmt.Sprintf("per-step weight update exceeds %g", MaxAbsUpdate), d, i)
			}
		}
	}
	for k, i := 0, 0; i < len(smp.Weights); k, i = k+1, i+stride {
		next[k] = smp.Weights[i]
	}
	s.prev = next
	return nil
}

// Reset drops the update-norm baseline; call it after a rollback so the
// first post-restore step is not compared against pre-divergence weights.
func (s *Sentinel) Reset() { s.prev = s.prev[:0] }

// Health is the shared divergence/rollback/watchdog ledger a trainer or
// fleet exposes through its stats: event counters, the last event, and
// the checkpoint-ring position.  All methods are safe from any goroutine.
type Health struct {
	divergences atomic.Int64
	rollbacks   atomic.Int64
	watchdogs   atomic.Int64
	quarantined atomic.Int64

	// healthyStreak counts consecutive healthy checks since the last
	// event; the instance reports degraded until it reaches degradedAfter.
	healthyStreak atomic.Int64
	degradedAfter int64

	lastReason  atomic.Pointer[string]
	lastStep    atomic.Int64
	lastUnixMs  atomic.Int64
	rbStep      atomic.Int64
	rbGen       atomic.Uint64
	ringGen     atomic.Uint64
	ringUnixNs  atomic.Int64
	haveRingGen atomic.Bool
}

// DefaultDegradedAfter is how many consecutive healthy checks clear the
// degraded flag after a divergence or watchdog event.
const DefaultDegradedAfter = 8

// NewHealth builds a ledger; degradedAfter <= 0 uses the default.
func NewHealth(degradedAfter int) *Health {
	if degradedAfter <= 0 {
		degradedAfter = DefaultDegradedAfter
	}
	return &Health{degradedAfter: int64(degradedAfter)}
}

// NoteDivergence records a sentinel event and marks the state degraded.
func (h *Health) NoteDivergence(ev *DivergenceEvent) {
	h.divergences.Add(1)
	h.healthyStreak.Store(0)
	r := ev.Reason
	h.lastReason.Store(&r)
	h.lastStep.Store(ev.Step)
	h.lastUnixMs.Store(time.Now().UnixMilli())
}

// NoteWatchdog records a step-watchdog fire and marks the state degraded.
func (h *Health) NoteWatchdog(step int64) {
	h.watchdogs.Add(1)
	h.healthyStreak.Store(0)
	r := "step_watchdog"
	h.lastReason.Store(&r)
	h.lastStep.Store(step)
	h.lastUnixMs.Store(time.Now().UnixMilli())
}

// NoteRollback records a completed rollback to ring generation gen taken
// at training step step.
func (h *Health) NoteRollback(gen uint64, step int64) {
	h.rollbacks.Add(1)
	h.rbGen.Store(gen)
	h.rbStep.Store(step)
}

// NoteQuarantine counts checkpoint files quarantined at load time.
func (h *Health) NoteQuarantine(n int) {
	if n > 0 {
		h.quarantined.Add(int64(n))
	}
}

// NoteHealthy records one passed health check.
func (h *Health) NoteHealthy() { h.healthyStreak.Add(1) }

// NoteCheckpoint records a checkpoint ring write (or a validated load).
func (h *Health) NoteCheckpoint(gen uint64, at time.Time) {
	h.ringGen.Store(gen)
	h.ringUnixNs.Store(at.UnixNano())
	h.haveRingGen.Store(true)
}

// Status is the JSON/metrics view of a Health ledger.
type Status struct {
	// Degraded is true from a divergence or watchdog event until enough
	// consecutive healthy steps have passed; /healthz can answer 503 on it.
	Degraded      bool   `json:"degraded"`
	Divergences   int64  `json:"divergences"`
	Rollbacks     int64  `json:"rollbacks"`
	WatchdogFires int64  `json:"watchdog_fires"`
	Quarantined   int64  `json:"quarantined_checkpoints"`
	LastReason    string `json:"last_reason,omitempty"`
	LastStep      int64  `json:"last_step,omitempty"`
	LastUnixMs    int64  `json:"last_unix_ms,omitempty"`
	// RollbackStep / RollbackGeneration locate the last rollback target.
	RollbackStep       int64  `json:"rollback_step,omitempty"`
	RollbackGeneration uint64 `json:"rollback_generation,omitempty"`
	// RingGeneration is the newest checkpoint generation written or
	// validated; RingAgeMs its age (-1 before any checkpoint exists).
	RingGeneration uint64 `json:"ring_generation"`
	RingAgeMs      int64  `json:"ring_age_ms"`
}

// Status snapshots the ledger; now stamps the ring age.  Nil-safe: a nil
// Health returns nil.
func (h *Health) Status(now time.Time) *Status {
	if h == nil {
		return nil
	}
	st := &Status{
		Divergences:        h.divergences.Load(),
		Rollbacks:          h.rollbacks.Load(),
		WatchdogFires:      h.watchdogs.Load(),
		Quarantined:        h.quarantined.Load(),
		LastStep:           h.lastStep.Load(),
		LastUnixMs:         h.lastUnixMs.Load(),
		RollbackStep:       h.rbStep.Load(),
		RollbackGeneration: h.rbGen.Load(),
		RingGeneration:     h.ringGen.Load(),
		RingAgeMs:          -1,
	}
	if r := h.lastReason.Load(); r != nil {
		st.LastReason = *r
	}
	if h.haveRingGen.Load() {
		st.RingAgeMs = now.Sub(time.Unix(0, h.ringUnixNs.Load())).Milliseconds()
	}
	st.Degraded = (st.Divergences > 0 || st.WatchdogFires > 0) &&
		h.healthyStreak.Load() < h.degradedAfter
	return st
}
