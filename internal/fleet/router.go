package fleet

import (
	"sync/atomic"

	"fekf/internal/online"
)

// Router is the predict tier in front of the fleet: it load-balances
// snapshot reads across the replicas' copy-on-write model snapshots,
// health-checking each candidate (alive and published).  Because snapshots
// are immutable clones, a replica killed after a snapshot was handed out
// never fails the prediction in flight — the router merely stops handing
// that replica out for new requests.
type Router struct {
	f    *Fleet
	next atomic.Uint64
}

// Snapshot returns the next healthy replica's snapshot in rotation.  When
// no replica passes the health check (all dead, or none published yet) it
// falls back to the freshest snapshot ever published — availability over
// freshness — and returns nil only before the fleet ever published.
func (rt *Router) Snapshot() *online.ModelSnapshot {
	reps := rt.f.reps
	n := len(reps)
	if n == 0 {
		return nil
	}
	// The modulo must happen in uint64: converting the counter to int
	// first goes negative once it wraps past MaxInt64 and indexes
	// reps[-k].
	start := int((rt.next.Add(1) - 1) % uint64(n))
	for k := 0; k < n; k++ {
		r := reps[(start+k)%n]
		if !r.alive.Load() {
			continue
		}
		if s := r.Snapshot(); s != nil {
			r.routed.Add(1)
			return s
		}
	}
	return rt.freshest()
}

// freshest returns the most recently published snapshot across all
// replicas, dead or alive, or nil when nothing was ever published.
func (rt *Router) freshest() *online.ModelSnapshot {
	var best *online.ModelSnapshot
	for _, r := range rt.f.reps {
		if s := r.Snapshot(); s != nil {
			if best == nil || s.Published.After(best.Published) {
				best = s
			}
		}
	}
	return best
}
