// Package clocktest provides a deterministic fake clock satisfying
// online.Clock, so control-loop tests (autoscaler decisions, cooldown
// windows, snapshot ages) advance time explicitly instead of sleeping.
// Waiters registered through After fire synchronously inside Advance the
// moment the fake time passes their deadline — no wall time is involved
// anywhere.
package clocktest

import (
	"sync"
	"time"
)

// waiter is one pending After registration.
type waiter struct {
	at time.Time
	ch chan time.Time
}

// Clock is a fake online.Clock.  Now returns the controlled time; After
// channels fire when Advance (or Set) moves the time past their deadline.
// All methods are safe for concurrent use.
type Clock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []waiter
}

// New returns a fake clock parked at start.
func New(start time.Time) *Clock {
	return &Clock{now: start}
}

// Now returns the fake time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After returns a channel that fires once the fake time has advanced by d.
// A non-positive d fires on the next Advance (or immediately, matching the
// semantics tests care about: no real waiting ever happens).
func (c *Clock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	at := c.now.Add(d)
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.waiters = append(c.waiters, waiter{at: at, ch: ch})
	return ch
}

// Advance moves the fake time forward by d, firing every waiter whose
// deadline has passed (in deadline order, so chained timeouts observe a
// consistent history).
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.fireLocked()
	c.mu.Unlock()
}

// Set jumps the fake time to t (which must not move backwards) and fires
// the waiters that became due.
func (c *Clock) Set(t time.Time) {
	c.mu.Lock()
	if t.After(c.now) {
		c.now = t
	}
	c.fireLocked()
	c.mu.Unlock()
}

// fireLocked delivers to every due waiter.  Caller holds mu.
func (c *Clock) fireLocked() {
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.at.After(c.now) {
			w.ch <- c.now
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
}

// Waiters returns the number of pending After registrations — useful for
// asserting that a control loop parked itself on the clock.
func (c *Clock) Waiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}
