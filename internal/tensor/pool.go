package tensor

// Host-side worker pool shared by every parallel kernel in this package
// (and, through ParallelFor, by the optimizer's per-block Kalman loop).
//
// Design constraints, in order:
//
//  1. Determinism.  Every parallel kernel partitions its *output* into
//     disjoint ranges and runs the exact per-element accumulation order of
//     the serial kernel inside each range, so results are bitwise
//     identical at every worker count.  Which goroutine executes a shard
//     never affects the values written.
//  2. No deadlock under nesting.  The Kalman optimizer parallelizes over
//     covariance blocks while each block's kernels are themselves
//     parallel.  Shards are handed to pool workers with a non-blocking
//     send on an unbuffered channel: if no worker is idle the submitting
//     goroutine simply runs the shard inline, so a worker can never block
//     waiting on work that only itself could execute.
//  3. Shared capacity.  One process-wide pool sized from GOMAXPROCS (or
//     SetWorkers, which cmd's -workers flag sets) serves all callers, so the
//     cluster simulation's rank goroutines compete for the same host
//     cores they would on a real node.
//
// The simulated-device accounting is unaffected: kernels report one
// Launch per logical kernel regardless of how many host shards executed
// it, so modeled device time and kernel counts are identical to the
// serial execution (see DESIGN.md, "Host worker pool").

import (
	"runtime"
	"sync"
)

// maxPoolWorkers caps the number of persistent pool goroutines; worker
// counts above the cap still shard work but reuse the capped goroutines.
const maxPoolWorkers = 64

// minParallelFlops is the work floor below which row-sharded kernels run
// serially: a shard handoff costs on the order of a microsecond, so tiny
// kernels are cheaper on the calling goroutine.
const minParallelFlops = 1 << 14

var (
	poolMu      sync.Mutex
	poolWorkers int
	poolSpawned int
	poolTasks   = make(chan func()) // unbuffered: send succeeds only to an idle worker
)

func init() {
	poolWorkers = runtime.GOMAXPROCS(0)
}

// Workers returns the current worker count used to shard parallel kernels.
func Workers() int {
	poolMu.Lock()
	defer poolMu.Unlock()
	return poolWorkers
}

// SetWorkers sets the pool's worker count and returns the previous value.
// n <= 0 resets to the default, GOMAXPROCS.  A count of 1
// makes every kernel run serially on the calling goroutine; results are
// bitwise identical at every setting.
func SetWorkers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	prev := poolWorkers
	poolWorkers = n
	return prev
}

// ensureWorkers spawns persistent pool goroutines up to min(n, cap).
func ensureWorkers(n int) {
	if n > maxPoolWorkers {
		n = maxPoolWorkers
	}
	poolMu.Lock()
	for poolSpawned < n {
		poolSpawned++
		go func() {
			for task := range poolTasks {
				task()
			}
		}()
	}
	poolMu.Unlock()
}

// ParallelFor partitions [0,n) into at most Workers() contiguous ranges
// and runs fn on each, returning when all complete.  fn must only write
// state derivable from its own [lo,hi) range; under that contract results
// are independent of the worker count and of shard scheduling.  Shards
// that find no idle pool worker run on the calling goroutine, so nested
// ParallelFor calls degrade to inline execution instead of deadlocking.
func ParallelFor(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	ensureWorkers(w - 1)
	var wg sync.WaitGroup
	for s := 1; s < w; s++ {
		lo := s * n / w
		hi := (s + 1) * n / w
		wg.Add(1)
		task := func() {
			defer wg.Done()
			fn(lo, hi)
		}
		select {
		case poolTasks <- task:
		default:
			task() // pool saturated (e.g. nested call): run inline
		}
	}
	fn(0, 1*n/w)
	wg.Wait()
}

// parallelRows shards rows of an output across the pool when the kernel's
// total flop count clears the floor; otherwise it runs serially.  The
// flops argument gates only the *scheduling* decision, never the values.
func parallelRows(rows int, flops int64, fn func(lo, hi int)) {
	if flops < minParallelFlops || Workers() <= 1 {
		fn(0, rows)
		return
	}
	ParallelFor(rows, fn)
}
