package online

import "time"

// Clock is the online loop's time source: the deadline of the loop's idle
// wait goes through it, and the fleet routes snapshot provenance,
// step-latency measurement, the step watchdog and every autoscaler
// decision through the same clock, so a fake clock makes the whole control
// loop deterministic in tests (see internal/fleet/clocktest).
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers the time once d has elapsed.
	After(d time.Duration) <-chan time.Time
}

// systemClock is the production Clock: the real wall clock.
type systemClock struct{}

func (systemClock) Now() time.Time                         { return time.Now() }
func (systemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// SystemClock is the real wall clock, the default when no clock is given.
var SystemClock Clock = systemClock{}
