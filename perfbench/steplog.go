package main

import (
	"fmt"
	"sync"
	"time"

	"fekf/internal/obs"
	"fekf/internal/online"
	"fekf/internal/optimize"
)

// stepLog records every optimizer step a backend reports through its
// OnStep hook: when the step completed and its ABE, plus what freshness
// needs — at each publishing step the number of frames the gate had scored
// before it, and (read one step later) when that step's snapshot was
// published.
type stepLog struct {
	// stats and snapshot read the backend; both are set before Start.
	stats    func() online.Stats
	snapshot func() *online.ModelSnapshot
	// bench receives the benchmark's own span around each Snapshot call
	// (nil when tracing is off).
	bench *obs.Tracer

	mu        sync.Mutex
	at        []time.Time // at[n-1] is when OnStep(n) ran
	eABE      []float64   // eABE[n-1] is step n's energy ABE (eV/atom)
	fABE      []float64   // fABE[n-1] is step n's force ABE (eV/Å)
	scored    map[int64]int64
	published map[int64]time.Time
	err       error

	first     chan struct{}
	firstOnce sync.Once
}

func newStepLog() *stepLog {
	return &stepLog{
		scored:    map[int64]int64{},
		published: map[int64]time.Time{},
		first:     make(chan struct{}),
	}
}

// onStep is the OnStep hook; it runs on the trainer or conductor goroutine.
func (l *stepLog) onStep(n int64, info optimize.StepInfo) {
	now := time.Now()
	scored := int64(-1)
	if n%snapshotEvery == 0 {
		st := l.stats()
		scored = st.FramesAccepted + st.FramesGatedOut
	}
	var pub time.Time
	if n > 1 && (n-1)%snapshotEvery == 0 {
		// Step n-1 published right after its own OnStep; that snapshot is
		// the newest one now.
		s0 := time.Now()
		s := l.snapshot()
		rec := l.bench.Begin()
		rec.Span(-1, "bench_snapshot", s0, time.Since(s0))
		rec.End(n)
		if s != nil && s.Step == n-1 {
			pub = s.Published
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if int(n) != len(l.at)+1 && l.err == nil {
		l.err = fmt.Errorf("OnStep(%d) after %d steps: step numbers must be contiguous", n, len(l.at))
	}
	l.at = append(l.at, now)
	l.eABE = append(l.eABE, info.EnergyABE)
	l.fABE = append(l.fABE, info.ForceABE)
	if scored >= 0 {
		l.scored[n] = scored
	}
	if !pub.IsZero() {
		l.published[n-1] = pub
	}
	l.firstOnce.Do(func() { close(l.first) })
}

// steps returns the number of steps logged so far.
func (l *stepLog) steps() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.at)
}

// times returns a copy of the step completion times.
func (l *stepLog) times() []time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Time(nil), l.at...)
}

// abe returns copies of the per-step energy and force ABE sequences.
func (l *stepLog) abe() (e, f []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.eABE...), append([]float64(nil), l.fABE...)
}

// error returns the first inconsistency onStep saw, if any.
func (l *stepLog) error() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// waitSteps blocks until at least n steps are logged or the timeout passes.
func (l *stepLog) waitSteps(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for l.steps() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d training steps after %v", l.steps(), n, timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// coveredAt returns when the first published snapshot whose step had
// scored at least `scored` frames was published (false when none yet).
func (l *stepLog) coveredAt(scored int64) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for n := int64(snapshotEvery); n <= int64(len(l.at)); n += snapshotEvery {
		if c, ok := l.scored[n]; ok && c >= scored {
			t, ok := l.published[n]
			return t, ok
		}
	}
	return time.Time{}, false
}

// stepWindow returns the intervals between steps that end at a step
// completed in (from, to] and start at a step no earlier than from.
func stepWindow(at []time.Time, from, to time.Time) (intervals []float64) {
	for i, t := range at {
		if i > 0 && t.After(from) && !t.After(to) && !at[i-1].Before(from) {
			intervals = append(intervals, ms(t.Sub(at[i-1])))
		}
	}
	return intervals
}
