package online

import (
	"fmt"

	"fekf/internal/dataset"
	"fekf/internal/md"
)

// MaxReplayCap bounds a replay buffer's window and reservoir capacities.
// NewReplay clamps to it and a checkpoint that asks for more is rejected,
// so a forged capacity cannot make restore allocate without bound.
const MaxReplayCap = 1 << 16

// ReplayBuffer is the training-set surrogate of the streaming trainer: a
// FIFO window holding the newest gated frames (recency) combined with a
// reservoir sample over the entire gated stream (coverage — every frame
// ever admitted has equal probability of residing in the reservoir,
// classic Algorithm R).  Minibatches are drawn uniformly over the union,
// so online training keeps revisiting old configurations while tracking
// new ones.
//
// The buffer is not goroutine-safe: it is owned by the trainer loop.  Its
// random stream is an injectable per-buffer sampleRNG (never a shared or
// package-global source), so replicated trainers each draw a private,
// seed-determined sequence and checkpoints capture the stream position —
// see ReplayCheckpoint.RNG.
type ReplayBuffer struct {
	window []dataset.Snapshot // ring buffer of the newest frames
	wHead  int                // index of the oldest window entry
	wLen   int

	reservoir []dataset.Snapshot
	resCap    int
	seen      int64 // frames ever offered to the reservoir

	rng *sampleRNG
}

// NewReplay returns a buffer with the given window and reservoir
// capacities (each clamped to [1, MaxReplayCap]) and a deterministic
// sampling stream.
func NewReplay(windowSize, reservoirSize int, seed int64) *ReplayBuffer {
	windowSize = min(max(windowSize, 1), MaxReplayCap)
	reservoirSize = min(max(reservoirSize, 1), MaxReplayCap)
	return &ReplayBuffer{
		window: make([]dataset.Snapshot, windowSize),
		resCap: reservoirSize,
		rng:    newSampleRNG(seed),
	}
}

// Add admits one frame: it always enters the window (evicting the oldest
// once full) and enters the reservoir with the inclusion probability that
// keeps the reservoir a uniform sample of the whole stream.
func (rb *ReplayBuffer) Add(s dataset.Snapshot) {
	if rb.wLen < len(rb.window) {
		rb.window[(rb.wHead+rb.wLen)%len(rb.window)] = s
		rb.wLen++
	} else {
		rb.window[rb.wHead] = s
		rb.wHead = (rb.wHead + 1) % len(rb.window)
	}

	rb.seen++
	if len(rb.reservoir) < rb.resCap {
		rb.reservoir = append(rb.reservoir, s)
	} else if j := rb.rng.Int63n(rb.seen); j < int64(rb.resCap) {
		rb.reservoir[j] = s
	}
}

// Len returns the size of the sampling pool (window + reservoir slots; a
// recent frame may occupy one of each, which mildly over-weights recency —
// intended for online tracking).
func (rb *ReplayBuffer) Len() int { return rb.wLen + len(rb.reservoir) }

// Seen returns the number of frames ever admitted.
func (rb *ReplayBuffer) Seen() int64 { return rb.seen }

// WindowLen returns the number of frames in the FIFO window.
func (rb *ReplayBuffer) WindowLen() int { return rb.wLen }

// ReservoirLen returns the number of frames in the reservoir.
func (rb *ReplayBuffer) ReservoirLen() int { return len(rb.reservoir) }

// Cap returns the buffer's combined window and reservoir capacity.
func (rb *ReplayBuffer) Cap() int { return len(rb.window) + rb.resCap }

// Sample draws bs frames uniformly (with replacement) from the pool.
// It returns nil while the buffer is empty.
func (rb *ReplayBuffer) Sample(bs int) []dataset.Snapshot {
	n := rb.Len()
	if n == 0 || bs < 1 {
		return nil
	}
	out := make([]dataset.Snapshot, bs)
	for i := range out {
		j := rb.rng.Intn(n)
		if j < rb.wLen {
			out[i] = rb.window[(rb.wHead+j)%len(rb.window)]
		} else {
			out[i] = rb.reservoir[j-rb.wLen]
		}
	}
	return out
}

// ReplayCheckpoint is the serializable state of a ReplayBuffer.
type ReplayCheckpoint struct {
	Window    []dataset.Snapshot // oldest first
	WindowCap int
	Reservoir []dataset.Snapshot
	ResCap    int
	Seen      int64
	// RNG is the sampling stream's SplitMix64 state; restoring it makes
	// the resumed buffer draw exactly the sequence the uninterrupted one
	// would have.
	RNG uint64
}

// Checkpoint copies the buffer contents for persistence (snapshot slices
// are shared, not deep-copied; frames are never mutated after ingest).
func (rb *ReplayBuffer) Checkpoint() *ReplayCheckpoint {
	ck := &ReplayCheckpoint{
		WindowCap: len(rb.window),
		ResCap:    rb.resCap,
		Seen:      rb.seen,
		RNG:       rb.rng.State(),
		Reservoir: append([]dataset.Snapshot(nil), rb.reservoir...),
	}
	for i := 0; i < rb.wLen; i++ {
		ck.Window = append(ck.Window, rb.window[(rb.wHead+i)%len(rb.window)])
	}
	return ck
}

// Validate checks a decoded replay checkpoint before it replaces a live
// buffer: both capacities at most MaxReplayCap, and every frame one that
// ingest would accept (ValidateFrame) under the checkpoint's species, the
// restored model's cutoff and the stream's atom count.  A frame that fails
// would otherwise panic the first step that samples it.  A nil checkpoint
// (restore keeps the current buffer) is valid.
func (ck *ReplayCheckpoint) Validate(species []md.Species, cutoff float64, numAtoms int) error {
	if ck == nil {
		return nil
	}
	if ck.WindowCap > MaxReplayCap || ck.ResCap > MaxReplayCap {
		return fmt.Errorf("online: replay checkpoint capacities %d/%d exceed %d", ck.WindowCap, ck.ResCap, MaxReplayCap)
	}
	check := func(part string, frames []dataset.Snapshot) error {
		for i := range frames {
			if err := ValidateFrame(&frames[i], species, cutoff, numAtoms); err != nil {
				return fmt.Errorf("online: replay %s frame %d: %w", part, i, err)
			}
		}
		return nil
	}
	if err := check("window", ck.Window); err != nil {
		return err
	}
	return check("reservoir", ck.Reservoir)
}

// RestoreReplay rebuilds a buffer from a checkpoint, resuming the sampling
// stream at the checkpointed SplitMix64 state: the restored buffer's next
// draw is bitwise the draw the uninterrupted buffer would have made.
func RestoreReplay(ck *ReplayCheckpoint) *ReplayBuffer {
	rb := NewReplay(ck.WindowCap, ck.ResCap, 0)
	rb.rng = restoreSampleRNG(ck.RNG)
	for _, s := range ck.Window {
		if rb.wLen < len(rb.window) {
			rb.window[rb.wLen] = s
			rb.wLen++
		}
	}
	rb.reservoir = append(rb.reservoir, ck.Reservoir...)
	if len(rb.reservoir) > rb.resCap {
		rb.reservoir = rb.reservoir[:rb.resCap]
	}
	rb.seen = ck.Seen
	return rb
}
