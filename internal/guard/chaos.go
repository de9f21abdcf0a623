package guard

import (
	"fmt"
	"math"
	"os"
)

// ChaosConfig is the deterministic weight-poison injector, the state-level
// counterpart of cluster.FaultyTransport's wire faults.  Steps are 1-based
// completed-step numbers (the same counter stats report); the zero value
// injects nothing.
type ChaosConfig struct {
	// PoisonStep poisons the weights with a non-finite value immediately
	// after that step completes — the observable effect of a NaN/Inf
	// gradient surviving the reduction — so the sentinel must catch it and
	// roll back.  0 disables.
	PoisonStep int64
	// PoisonInf injects +Inf instead of NaN.
	PoisonInf bool
}

// MaybePoison returns the weight delta the poison injector applies after
// completed step n — nParams zeros with NaN (+Inf under PoisonInf) at
// index 0 — or nil when none is due.
// One-shot: *fired is set on the first injection, so the re-run of step n
// after a rollback sees the clean gradient, not the fault again.
func (c ChaosConfig) MaybePoison(n int64, fired *bool, nParams int) []float64 {
	if *fired || c.PoisonStep == 0 || n != c.PoisonStep {
		return nil
	}
	*fired = true
	delta := make([]float64, nParams)
	delta[0] = math.NaN()
	if c.PoisonInf {
		delta[0] = math.Inf(1)
	}
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
