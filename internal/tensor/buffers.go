package tensor

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Host buffer recycling.  A training step builds the same autodiff graph
// every iteration, so it asks for the same matrix sizes every iteration.
// New draws buffers of at least bufferFloor elements from a free list per
// exact length, and Recycle puts them back; the autodiff graph recycles
// every op output it owns at Release.  Reuse only changes where a result
// is written, never what is computed, so every value stays bitwise equal
// to a fresh allocation.
//
// Each length has its own sync.Pool, which caches per P: concurrent ranks,
// predict handlers and background drains do not contend, and the garbage
// collector empties idle pools, so the pool needs no size cap and no knob.

// bufferFloor is the smallest length, in float64s (4 KiB), that is
// recycled.  Smaller matrices — scalars, bias rows, per-image energies —
// are left to make.
const bufferFloor = 512

// buffers maps an element count to the pool of *Dense of that length.  It
// is copy-on-write: lookups are one atomic load, and a length seen for the
// first time copies the map under buffersMu.
var (
	buffers   atomic.Pointer[map[int]*sync.Pool]
	buffersMu sync.Mutex
)

func bufferPool(n int) *sync.Pool {
	if m := buffers.Load(); m != nil {
		if p := (*m)[n]; p != nil {
			return p
		}
	}
	buffersMu.Lock()
	defer buffersMu.Unlock()
	next := map[int]*sync.Pool{}
	if old := buffers.Load(); old != nil {
		if p := (*old)[n]; p != nil {
			return p
		}
		for k, v := range *old {
			next[k] = v
		}
	}
	p := new(sync.Pool)
	next[n] = p
	buffers.Store(&next)
	return p
}

// take returns an r×c matrix and whether its buffer was recycled; a
// recycled buffer holds stale values.
func take(r, c int) (*Dense, bool) {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", r, c))
	}
	n := r * c
	if n >= bufferFloor {
		if m, _ := bufferPool(n).Get().(*Dense); m != nil {
			m.Rows, m.Cols = r, c
			return m, true
		}
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, n)}, false
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Dense {
	m, recycled := take(r, c)
	if recycled {
		clear(m.Data)
	}
	return m
}

// newUninit returns an r×c matrix whose contents are unspecified.  Only a
// kernel that writes every output element may use it.
func newUninit(r, c int) *Dense {
	m, _ := take(r, c)
	return m
}

// Recycle hands m's buffer back to New.  The caller must own m outright:
// neither m nor any view of its data (a Reshape, a FromSlice of it) may be
// read or written afterwards.  Buffers below the recycling floor, and
// slices that do not span their whole backing array, are left to the
// garbage collector.
func Recycle(m *Dense) {
	if m == nil || len(m.Data) < bufferFloor || cap(m.Data) != len(m.Data) {
		return
	}
	bufferPool(len(m.Data)).Put(m)
}
