package fleet

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"fekf/internal/online"
)

// AutoscaleConfig controls the queue-pressure autoscaler.  When Enabled,
// the fleet allocates Max replica slots up front and the conductor grows
// and shrinks the *live* count between Min and Max: scale-up revives a
// dead slot through the checkpoint catch-up path (so it rejoins at drift
// exactly 0), scale-down kills the highest live slot and re-shards its
// queued backlog across the survivors.  Every membership change re-forms
// the collective ring, exactly as a manual Kill/Revive would.
type AutoscaleConfig struct {
	Enabled bool
	// Min and Max bound the live replica count (defaults 1 and the
	// configured Replicas).  The controller also heals toward the band:
	// a fleet pushed outside it (replica deaths, a resumed checkpoint
	// with a different width) is scaled back one replica per decision.
	Min, Max int
}

// The controller's fixed settings.
const (
	// ScaleUpAt and ScaleDownAt are the hysteresis band edges on the
	// pressure score: pressure >= ScaleUpAt grows the fleet, pressure <=
	// ScaleDownAt shrinks it, anything between holds (the dead-band).
	ScaleUpAt, ScaleDownAt = 0.75, 0.20
	// UpCooldown is the minimum time after any scale event before the
	// next scale-up; DownCooldown likewise for scale-downs.  Measuring
	// both from the last event in either direction prevents up→down
	// flapping when a burst ends right after a scale-up.
	UpCooldown, DownCooldown = 2 * time.Second, 5 * time.Second
	// AutoscaleInterval is the sampling period of the control loop;
	// between evaluations the conductor records the peak per-replica
	// queue occupancy so short bursts are not missed.
	AutoscaleInterval = 250 * time.Millisecond
	// ReassignBytesPerSec models the bandwidth available for migrating
	// covariance shards when a pshard fleet resizes (1 GiB/s).  The
	// modeled transfer time of a candidate transition (its
	// Sample.ReassignBytes, divided by this rate) extends the matching
	// cooldown, so expensive repartitions happen less often than cheap
	// ones.  Replicated fleets move no shards and are unaffected.
	ReassignBytesPerSec = 1 << 30
)

func (c AutoscaleConfig) withDefaults(replicas int) AutoscaleConfig {
	if c.Min < 1 {
		c.Min = 1
	}
	if c.Max < c.Min {
		if replicas > c.Min {
			c.Max = replicas
		} else {
			c.Max = c.Min
		}
	}
	return c
}

// Sample is one autoscaler observation, gathered by the conductor between
// steps.
type Sample struct {
	// Live is the current live replica count.
	Live int
	// QueueOccupancy is the peak per-replica ingest-queue fill fraction
	// (0..1) observed since the previous evaluation — a peak, not an
	// instant, so a burst drained between samples still registers.
	QueueOccupancy float64
	// GateAcceptRate is the fraction of gate-scored frames admitted so
	// far (1 before any frame was scored: no evidence of redundancy).
	GateAcceptRate float64
	// StepLatency is the EMA of recent lockstep wall times.
	StepLatency time.Duration
	// Backlog is the total number of frames currently queued.
	Backlog int
	// ReassignBytesUp and ReassignBytesDown are the covariance bytes a
	// scale-up or scale-down would migrate between ranks (0 for a
	// replicated fleet, whose transitions move no P state).  The
	// controller charges the modeled transfer time against the matching
	// cooldown.
	ReassignBytesUp, ReassignBytesDown int64
}

// Decision is the outcome of one autoscaler evaluation.
type Decision int

const (
	// Hold leaves the live count unchanged.
	Hold Decision = iota
	// ScaleUp revives one dead replica slot.
	ScaleUp
	// ScaleDown kills one live replica and re-shards its backlog.
	ScaleDown
)

// String names the decision for stats and logs.
func (d Decision) String() string {
	switch d {
	case ScaleUp:
		return "up"
	case ScaleDown:
		return "down"
	default:
		return "hold"
	}
}

// Verdict is one evaluated decision with its evidence.
type Verdict struct {
	Decision Decision
	// Target is the desired live count after applying the decision.
	Target int
	// Pressure is the composite load score the decision was made on.
	Pressure float64
	// Reason explains the decision (or the hold) in one sentence.
	Reason string
}

// Autoscaler is the queue-pressure controller.  Evaluate is called by one
// goroutine (the fleet conductor, or a test); the stats mirrors are safe
// to read from any goroutine.
type Autoscaler struct {
	cfg   AutoscaleConfig
	clock online.Clock

	// lastScale is the time of the last scale event in either direction,
	// the reference point for both cooldowns.  Owner: the evaluating
	// goroutine.
	lastScale time.Time

	// observability mirrors
	evals        atomic.Int64
	ups          atomic.Int64
	downs        atomic.Int64
	target       atomic.Int64
	pressureBits atomic.Uint64
	lastMu       sync.Mutex
	lastDecision string
	lastReason   string
}

// NewAutoscaler builds a controller over cfg (defaults applied against
// replicas as the fallback Max) and a clock (nil means the system clock).
func NewAutoscaler(cfg AutoscaleConfig, replicas int, clock online.Clock) *Autoscaler {
	if clock == nil {
		clock = online.SystemClock
	}
	return &Autoscaler{cfg: cfg.withDefaults(replicas), clock: clock}
}

// Config returns the controller's effective (defaulted) configuration.
func (a *Autoscaler) Config() AutoscaleConfig { return a.cfg }

// clamp01 squeezes x into [0, 1].
func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Pressure folds the three load signals into one score in [0, 2]:
//
//	occupancy  — the direct queue-pressure term (0..1)
//	acceptance — frames the gate rejects never reach the replay buffers,
//	             so a mostly-redundant stream carries half weight:
//	             factor 0.5 + 0.5·acceptRate
//	latency    — lockstep steps slower than the control interval mean the
//	             fleet drains slower than the controller samples; the
//	             factor 1 + min(1, latency/interval) amplifies pressure
//	             up to 2× for a saturated conductor
//
// With a responsive fleet and a useful stream the score reduces to the
// queue occupancy itself, which is what the hysteresis band defaults are
// tuned against.
func (a *Autoscaler) Pressure(s Sample) float64 {
	gate := 0.5 + 0.5*clamp01(s.GateAcceptRate)
	lat := 1.0
	if s.StepLatency > 0 {
		lat += math.Min(1, float64(s.StepLatency)/float64(AutoscaleInterval))
	}
	return clamp01(s.QueueOccupancy) * gate * lat
}

// Evaluate makes one scaling decision from a sample.  Band-outside live
// counts are healed first (one replica per decision), then the hysteresis
// band applies; cooldowns gate both directions from the last scale event.
// A returned ScaleUp/ScaleDown is assumed applied by the caller — the
// cooldown reference advances with the decision.
func (a *Autoscaler) Evaluate(s Sample) Verdict {
	now := a.clock.Now()
	a.evals.Add(1)
	p := a.Pressure(s)
	v := Verdict{Decision: Hold, Target: s.Live, Pressure: p}
	switch {
	case s.Live < a.cfg.Min:
		a.try(&v, ScaleUp, s, now, fmt.Sprintf("live %d below min %d", s.Live, a.cfg.Min))
	case s.Live > a.cfg.Max:
		a.try(&v, ScaleDown, s, now, fmt.Sprintf("live %d above max %d", s.Live, a.cfg.Max))
	case p >= ScaleUpAt:
		if s.Live == a.cfg.Max {
			v.Reason = fmt.Sprintf("pressure %.3f >= %.2f but already at max %d", p, ScaleUpAt, a.cfg.Max)
		} else {
			a.try(&v, ScaleUp, s, now, fmt.Sprintf("pressure %.3f >= %.2f", p, ScaleUpAt))
		}
	case p <= ScaleDownAt:
		if s.Live == a.cfg.Min {
			v.Reason = fmt.Sprintf("pressure %.3f <= %.2f but already at min %d", p, ScaleDownAt, a.cfg.Min)
		} else {
			a.try(&v, ScaleDown, s, now, fmt.Sprintf("pressure %.3f <= %.2f", p, ScaleDownAt))
		}
	default:
		v.Reason = fmt.Sprintf("pressure %.3f in dead-band (%.2f, %.2f)", p, ScaleDownAt, ScaleUpAt)
	}
	a.record(v)
	return v
}

// try commits a scale-up or scale-down (d) unless that direction's
// cooldown — extended by the modeled shard-transfer time of the
// transition — still runs.
func (a *Autoscaler) try(v *Verdict, d Decision, s Sample, now time.Time, why string) {
	cooldown, bytes, step, count := UpCooldown, s.ReassignBytesUp, 1, &a.ups
	if d == ScaleDown {
		cooldown, bytes, step, count = DownCooldown, s.ReassignBytesDown, -1, &a.downs
	}
	cost := a.transferCost(bytes)
	if wait := a.cooldownLeft(now, cooldown+cost); wait > 0 {
		v.Reason = fmt.Sprintf("%s, but %s cooldown has %s left", why, d, wait)
		return
	}
	v.Decision = d
	v.Target = s.Live + step
	v.Reason = fmt.Sprintf("%s: scaling %d -> %d", why, s.Live, v.Target)
	if bytes > 0 {
		v.Reason += fmt.Sprintf(" (repartition moves %d shard bytes, ~%s)", bytes, cost)
	}
	a.lastScale = now
	count.Add(1)
}

// transferCost converts a shard-migration volume into the modeled wall
// time at ReassignBytesPerSec.
func (a *Autoscaler) transferCost(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / ReassignBytesPerSec * float64(time.Second))
}

// cooldownLeft returns how much of cd is still pending since the last
// scale event (0 when none happened yet).
func (a *Autoscaler) cooldownLeft(now time.Time, cd time.Duration) time.Duration {
	if a.lastScale.IsZero() {
		return 0
	}
	if left := cd - now.Sub(a.lastScale); left > 0 {
		return left
	}
	return 0
}

// record mirrors the verdict for concurrent stats readers.
func (a *Autoscaler) record(v Verdict) {
	a.target.Store(int64(v.Target))
	a.pressureBits.Store(math.Float64bits(v.Pressure))
	a.lastMu.Lock()
	a.lastDecision = v.Decision.String()
	a.lastReason = v.Reason
	a.lastMu.Unlock()
}

// AutoscaleStats is the autoscaler row in the fleet stats (and /v1/stats).
type AutoscaleStats struct {
	Enabled       bool    `json:"enabled"`
	Min           int     `json:"min"`
	Max           int     `json:"max"`
	Live          int     `json:"live"`
	Target        int     `json:"target"`
	Pressure      float64 `json:"pressure"`
	StepLatencyMs float64 `json:"step_latency_ms"`
	Evals         int64   `json:"evals"`
	ScaleUps      int64   `json:"scale_ups"`
	ScaleDowns    int64   `json:"scale_downs"`
	LastDecision  string  `json:"last_decision,omitempty"`
	LastReason    string  `json:"last_reason,omitempty"`
}

// statsRow assembles the observable controller state; safe from any
// goroutine.
func (a *Autoscaler) statsRow(live int, stepLatency time.Duration) *AutoscaleStats {
	st := &AutoscaleStats{
		Enabled:       true,
		Min:           a.cfg.Min,
		Max:           a.cfg.Max,
		Live:          live,
		Target:        int(a.target.Load()),
		Pressure:      math.Float64frombits(a.pressureBits.Load()),
		StepLatencyMs: float64(stepLatency) / float64(time.Millisecond),
		Evals:         a.evals.Load(),
		ScaleUps:      a.ups.Load(),
		ScaleDowns:    a.downs.Load(),
	}
	if st.Target == 0 {
		st.Target = live // before the first evaluation
	}
	a.lastMu.Lock()
	st.LastDecision = a.lastDecision
	st.LastReason = a.lastReason
	a.lastMu.Unlock()
	return st
}
