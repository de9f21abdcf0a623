package online

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"fekf/internal/dataset"
)

// Policy selects what a full ingest queue does with a newly pushed frame.
type Policy int

const (
	// Block makes Push wait until the trainer frees space — backpressure
	// all the way to the producer (an HTTP client sees a slow request).
	Block Policy = iota
	// DropNewest rejects the incoming frame when the queue is full.
	DropNewest
	// DropOldest evicts the oldest queued frame to admit the new one,
	// keeping the queue biased toward the most recent configurations.
	DropOldest
)

// String names the policy as accepted by ParsePolicy.
func (p Policy) String() string {
	switch p {
	case DropNewest:
		return "drop-new"
	case DropOldest:
		return "drop-old"
	default:
		return "block"
	}
}

// ParsePolicy parses a queue policy name: block | drop-new | drop-old.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "block", "":
		return Block, nil
	case "drop-new", "dropnew", "drop-newest":
		return DropNewest, nil
	case "drop-old", "dropold", "drop-oldest":
		return DropOldest, nil
	}
	return Block, fmt.Errorf("online: unknown queue policy %q", s)
}

// ErrClosed is returned by Push after the queue has been closed.
var ErrClosed = errors.New("online: queue closed")

// Queue is the bounded frame hand-off between ingest producers (HTTP
// handlers, the synthetic MD client) and the trainer goroutine.  Push is
// safe from any number of goroutines; Pop is intended for the single Loop
// goroutine draining it.  Closing the queue wakes blocked pushers and lets
// the consumer drain what is left.
type Queue struct {
	ch     chan dataset.Snapshot
	policy Policy

	mu     sync.Mutex // serializes DropOldest's evict-then-retry sequence
	closed atomic.Bool
	done   chan struct{}
	once   sync.Once

	pushed  atomic.Int64
	dropped atomic.Int64
}

// NewQueue returns a queue holding at most capacity frames (minimum 1).
func NewQueue(capacity int, policy Policy) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{
		ch:     make(chan dataset.Snapshot, capacity),
		policy: policy,
		done:   make(chan struct{}),
	}
}

// Push offers a frame under the queue's policy.  It reports whether the
// frame was accepted; ErrClosed after Close.  With the Block policy it
// waits for space (or for Close).
func (q *Queue) Push(s dataset.Snapshot) (bool, error) {
	if q.closed.Load() {
		return false, ErrClosed
	}
	switch q.policy {
	case DropNewest:
		select {
		case q.ch <- s:
			q.pushed.Add(1)
			return true, nil
		default:
			q.dropped.Add(1)
			return false, nil
		}
	case DropOldest:
		q.mu.Lock()
		defer q.mu.Unlock()
		for {
			select {
			case q.ch <- s:
				q.pushed.Add(1)
				return true, nil
			default:
			}
			select {
			case <-q.ch:
				q.dropped.Add(1)
			default:
			}
		}
	default: // Block
		select {
		case q.ch <- s:
			q.pushed.Add(1)
			return true, nil
		case <-q.done:
			return false, ErrClosed
		}
	}
}

// Pop removes one buffered frame without waiting; ok is false when the
// queue is empty (closed or not).
func (q *Queue) Pop() (s dataset.Snapshot, ok bool) {
	select {
	case s = <-q.ch:
		return s, true
	default:
		return s, false
	}
}

// Close rejects subsequent pushes and unblocks waiting ones; buffered
// frames remain poppable.
func (q *Queue) Close() {
	q.closed.Store(true)
	q.once.Do(func() { close(q.done) })
}

// Depth returns the number of frames currently buffered.
func (q *Queue) Depth() int { return len(q.ch) }

// Occupancy returns the filled fraction of the queue in [0, 1] — the raw
// pressure signal the fleet autoscaler samples per replica.
func (q *Queue) Occupancy() float64 { return float64(len(q.ch)) / float64(cap(q.ch)) }

// Cap returns the queue capacity.
func (q *Queue) Cap() int { return cap(q.ch) }

// Pushed returns the number of frames accepted so far.
func (q *Queue) Pushed() int64 { return q.pushed.Load() }

// Dropped returns the number of frames rejected or evicted by policy.
func (q *Queue) Dropped() int64 { return q.dropped.Load() }
