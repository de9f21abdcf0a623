package guard

import (
	"errors"
	"fmt"
	"math"
	"os"
)

// ErrHungRank is returned by a chaos-hung rank's injected step once the
// watchdog releases it; the conductor treats it like any other mid-step
// rank failure.
var ErrHungRank = errors.New("guard: chaos-hung rank released by watchdog")

// ChaosConfig is the deterministic state-level fault injector, the
// checkpoint/step counterpart of cluster.FaultyTransport's wire faults.
// Steps are 1-based completed-step numbers (the same counter stats
// report); the zero value injects nothing.
type ChaosConfig struct {
	// PoisonStep poisons the weight vector of every live replica with a
	// non-finite value immediately after that step completes — the
	// observable effect of a NaN/Inf gradient surviving the reduction —
	// so the sentinel must catch it and roll back.  0 disables.
	PoisonStep int64
	// PoisonInf injects +Inf instead of NaN.
	PoisonInf bool
	// PoisonIndex is the flat weight index poisoned (default 0).
	PoisonIndex int
	// HangStep blocks replica HangReplica inside its rank step at that
	// step, simulating a wedged collective participant.  Requires a step
	// watchdog (fleet StepTimeout > 0) to release it; the stuck rank is
	// aborted onto the replica-death path.  0 disables.
	HangStep    int64
	HangReplica int
}

// Enabled reports whether any injector is armed.
func (c ChaosConfig) Enabled() bool { return c.PoisonStep > 0 || c.HangStep > 0 }

// PoisonValue returns the non-finite value to inject.
func (c ChaosConfig) PoisonValue() float64 {
	if c.PoisonInf {
		return math.Inf(1)
	}
	return math.NaN()
}

// MaybePoison returns the weight delta the poison injector applies after
// completed step n — zeros with PoisonValue at PoisonIndex (clamped to 0
// when out of range) over nParams weights — or nil when none is due.
// One-shot: *fired is set on the first injection, so the re-run of step n
// after a rollback sees the clean gradient, not the fault again.
func (c ChaosConfig) MaybePoison(n int64, fired *bool, nParams int) []float64 {
	if *fired || c.PoisonStep == 0 || n != c.PoisonStep {
		return nil
	}
	*fired = true
	delta := make([]float64, nParams)
	idx := c.PoisonIndex
	if idx < 0 || idx >= nParams {
		idx = 0
	}
	delta[idx] = c.PoisonValue()
	return delta
}

// FlipByte XORs 0xFF into the byte at offset of the file at path
// (negative offsets count from the end), simulating on-disk corruption of
// a checkpoint generation.  Test harness use.
func FlipByte(path string, offset int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	if offset < 0 {
		offset += info.Size()
	}
	if offset < 0 || offset >= info.Size() {
		return fmt.Errorf("guard: flip offset %d outside file of %d bytes", offset, info.Size())
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], offset); err != nil {
		return err
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], offset); err != nil {
		return err
	}
	return f.Sync()
}

// Truncate chops the file at path down to n bytes (negative n removes |n|
// bytes from the end), simulating a torn write.  Test harness use.
func Truncate(path string, n int64) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	if n < 0 {
		n += info.Size()
	}
	if n < 0 {
		n = 0
	}
	return os.Truncate(path, n)
}
