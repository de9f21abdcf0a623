package online

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"fekf/internal/deepmd"
)

// raceEnabled reports whether the test binary was built with -race, under
// which sync.Pool drops a share of its Puts on purpose.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// TestStepHostAllocationBudget bounds what a warm training step allocates
// on the host, in the configuration BenchmarkTrainStepBare times.  The
// autodiff graph recycles its buffers at Release, so a step allocates
// little beyond its environment builds; without recycling it allocated
// about 23 MB.  The collector is off while measuring, so the buffer pool
// is not emptied mid-run.
func TestStepHostAllocationBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts under -race; the budget holds for normal builds")
	}
	tr := benchTrainer(t, TrainerConfig{})
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 3; i++ { // warm the pool
		tr.loop.Step()
	}
	const steps = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		tr.loop.Step()
	}
	runtime.ReadMemStats(&after)
	if le := tr.Stats().LastError; le != "" {
		t.Fatalf("trainer errored: %s", le)
	}
	perStep := float64(after.TotalAlloc-before.TotalAlloc) / steps
	const budget = 6 << 20
	if perStep > budget {
		t.Fatalf("a warm step allocates %.2f MB on the host, budget %.0f MB", perStep/(1<<20), float64(budget)/(1<<20))
	}
	t.Logf("a warm step allocates %.2f MB on the host", perStep/(1<<20))
}

// TestConcurrentForwardReleaseBitwise runs forwards with forces and an
// energy backward on one snapshot model from several goroutines, each
// releasing its graph into the shared buffer pool while the others draw
// from it, as concurrent predict handlers and gate admits do.  Every
// result must equal the serial one bit for bit.
func TestConcurrentForwardReleaseBitwise(t *testing.T) {
	ds, m, _ := onlineSetup(t)
	snap := m.Clone()
	type result struct{ energy, forces, grad []float64 }
	run := func(env *deepmd.Env) result {
		out := snap.Forward(env, true)
		res := result{
			energy: append([]float64(nil), out.Energies.Value.Data...),
			forces: append([]float64(nil), out.Forces.Value.Data...),
			grad:   snap.EnergyGrad(out, nil),
		}
		out.Graph.Release()
		return res
	}
	const frames = 3
	envs := make([]*deepmd.Env, frames)
	want := make([]result, frames)
	for k := range envs {
		env, err := deepmd.BuildBatchEnv(snap.Cfg, ds, []int{k, k + frames})
		if err != nil {
			t.Fatal(err)
		}
		envs[k] = env
		want[k] = run(env)
	}
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	const workers, iters = 4, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				k := (w + it) % frames
				got := run(envs[k])
				if !same(got.energy, want[k].energy) || !same(got.forces, want[k].forces) || !same(got.grad, want[k].grad) {
					t.Errorf("worker %d, frame %d: concurrent result differs from the serial one", w, k)
					return
				}
			}
		}()
	}
	wg.Wait()
}
