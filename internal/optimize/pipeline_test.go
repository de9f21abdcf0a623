package optimize

import (
	"math/rand"
	"testing"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/tensor"
)

// pipelineSweepShapes covers odd and even block splits at the test block
// size 128: a split layer plus gathered tails (odd sizes exercise the
// remainder paths of the row-sharded kernels).
var pipelineSweepShapes = [][]int{
	{70, 300, 64, 41}, // odd, multi-block with split layer
	{33, 257, 65},     // odd, prime-ish sizes
	{64, 256, 128},    // even, power-of-two sizes
}

// TestUpdateSplitDrainBitwiseMatchesUpdate is the state-level half of the
// pipeline's bitwise-equivalence contract: the gain-stage/drain split —
// with the drain running on a background goroutine, as the pipelined FEKF
// schedules it — must produce exactly the weight increments, P blocks and
// λ schedule of the one-shot serial Update, at every worker count and for
// odd and even block shapes.
func TestUpdateSplitDrainBitwiseMatchesUpdate(t *testing.T) {
	for _, opt3 := range []bool{false, true} {
		for si, shape := range pipelineSweepShapes {
			cfg := DefaultKalmanConfig()
			cfg.BlockSize = 128
			if opt3 {
				cfg = cfg.WithOpt3()
			}
			ref := NewKalmanState(cfg, shape, device.New("ref", device.A100()))
			n := ref.Blocks[len(ref.Blocks)-1].Hi

			for _, workers := range []int{1, 2, 4, 8} {
				split := NewKalmanState(cfg, shape, device.New("split", device.A100()))
				rng := rand.New(rand.NewSource(int64(97 + si)))
				refRng := rand.New(rand.NewSource(int64(97 + si)))
				wait := func() {}
				for step := 0; step < 4; step++ {
					g := make([]float64, n)
					for i := range g {
						g[i] = rng.NormFloat64()
					}
					gRef := make([]float64, n)
					for i := range gRef {
						gRef[i] = refRng.NormFloat64()
					}

					prev := tensor.SetWorkers(1)
					dRef := ref.Update(gRef, 0.2, 1.5)
					tensor.SetWorkers(workers)
					wait()
					dSplit, drain := split.UpdateSplit(g, 0.2, 1.5)
					wait = StartDrain(drain, true)
					tensor.SetWorkers(prev)

					for i := range dRef {
						if dSplit[i] != dRef[i] {
							t.Fatalf("opt3=%v shape %d workers %d step %d: delta[%d] = %v (split) vs %v (serial)",
								opt3, si, workers, step, i, dSplit[i], dRef[i])
						}
					}
				}
				wait()
				for b := range ref.P {
					for i, v := range ref.P[b].Data {
						if split.P[b].Data[i] != v {
							t.Fatalf("opt3=%v shape %d workers %d: P[%d] elem %d diverged",
								opt3, si, workers, b, i)
						}
					}
				}
				if split.Lambda != ref.Lambda || split.Updates != ref.Updates {
					t.Fatalf("opt3=%v shape %d workers %d: schedule diverged: λ %v vs %v, updates %d vs %d",
						opt3, si, workers, split.Lambda, ref.Lambda, split.Updates, ref.Updates)
				}
				// reset the reference for the next worker count
				ref.Free()
				ref = NewKalmanState(cfg, shape, device.New("ref", device.A100()))
			}
		}
	}
}

// TestUpdateSplitGuardsAndIdempotence: a second UpdateSplit before the
// previous drain has completed must panic (the gain stage would read a
// stale P), and drain must be idempotent so a defensive second call is
// harmless.
func TestUpdateSplitGuardsAndIdempotence(t *testing.T) {
	cfg := DefaultKalmanConfig()
	cfg.BlockSize = 32
	ks := NewKalmanState(cfg, []int{16, 20}, device.New("g", device.A100()))
	g := make([]float64, 36)
	for i := range g {
		g[i] = float64(i%7) - 3
	}
	_, drain := ks.UpdateSplit(g, 0.1, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("UpdateSplit before drain must panic")
			}
		}()
		ks.UpdateSplit(g, 0.1, 1)
	}()
	drain()
	drain() // idempotent
	pAfter := ks.P[0].Data[0]
	drain()
	if ks.P[0].Data[0] != pAfter {
		t.Fatal("extra drain call mutated P")
	}
	if _, d2 := ks.UpdateSplit(g, 0.1, 1); d2 != nil {
		d2() // a fresh split after a completed drain must work
	}
}

// pipelineModelSetup builds one tiny dataset and a base model the sweep
// clones per configuration, so every run starts from identical weights.
func pipelineModelSetup(t *testing.T) (*dataset.Dataset, *deepmd.Model) {
	t.Helper()
	ds, err := dataset.Generate("Cu", dataset.GenOptions{
		Snapshots: 6, SampleEvery: 4, EquilSteps: 30, Tiny: true, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := deepmd.SnapshotSystem(ds, &ds.Snapshots[0])
	m, err := deepmd.NewModel(deepmd.TinyConfig(sys))
	if err != nil {
		t.Fatal(err)
	}
	m.Level = deepmd.OptFused
	m.Dev = device.New("base", device.A100())
	if err := m.InitFromDataset(ds); err != nil {
		t.Fatal(err)
	}
	return ds, m
}

// runFEKFSteps drives `steps` FEKF iterations on a fresh clone and returns
// the optimizer and final StepInfo.
func runFEKFSteps(t *testing.T, base *deepmd.Model, ds *dataset.Dataset,
	pipeline bool, groups, steps int, idx []int) (*FEKF, *deepmd.Model, StepInfo) {
	t.Helper()
	m := base.CloneFor(device.New("run", device.A100()))
	f := NewFEKF()
	f.Pipeline = pipeline
	f.ForceGroups = groups
	var info StepInfo
	var err error
	for s := 0; s < steps; s++ {
		if info, err = f.Step(m, ds, idx); err != nil {
			t.Fatal(err)
		}
	}
	return f, m, info
}

// TestPipelinedFEKFBitwiseMatchesSerial is the full-model half of the
// equivalence contract: with the covariance drain overlapping the next
// measurement's forward/backward, the weights, every P block, λ and the
// reported StepInfo must stay bitwise identical to the strictly serial
// schedule — across worker counts and force-group counts.
func TestPipelinedFEKFBitwiseMatchesSerial(t *testing.T) {
	ds, base := pipelineModelSetup(t)
	idx := []int{0, 1, 2, 3}
	const steps = 2
	for _, groups := range []int{1, 2, 4} {
		prev := tensor.SetWorkers(1)
		fS, mS, infoS := runFEKFSteps(t, base, ds, false, groups, steps, idx)
		tensor.SetWorkers(prev)
		wS := mS.Params.FlattenValues()
		for _, workers := range []int{1, 2, 4, 8} {
			prev := tensor.SetWorkers(workers)
			fP, mP, infoP := runFEKFSteps(t, base, ds, true, groups, steps, idx)
			tensor.SetWorkers(prev)
			wP := mP.Params.FlattenValues()
			for i := range wS {
				if wP[i] != wS[i] {
					t.Fatalf("groups %d workers %d: weight[%d] = %v (pipelined) vs %v (serial)",
						groups, workers, i, wP[i], wS[i])
				}
			}
			for b := range fS.State().P {
				for i, v := range fS.State().P[b].Data {
					if fP.State().P[b].Data[i] != v {
						t.Fatalf("groups %d workers %d: P[%d] elem %d diverged", groups, workers, b, i)
					}
				}
			}
			if fP.State().Lambda != fS.State().Lambda {
				t.Fatalf("groups %d workers %d: λ %v vs %v", groups, workers, fP.State().Lambda, fS.State().Lambda)
			}
			if infoP != infoS {
				t.Fatalf("groups %d workers %d: StepInfo %+v vs %+v", groups, workers, infoP, infoS)
			}
		}
	}
}

// TestPipelineAccountingMatchesSerial: overlapping the drain with the next
// measurement must not change what the simulated device *charges* — same
// kernels, flops, bytes, modeled time, per-phase attribution and allocator
// state with the pipeline on and off.  Opt3's fused drain allocates no
// temporaries, so even PeakBytes must agree exactly.
func TestPipelineAccountingMatchesSerial(t *testing.T) {
	ds, base := pipelineModelSetup(t)
	idx := []int{0, 1, 2, 3}
	run := func(pipeline bool) device.Counters {
		dev := device.New("acct", device.A100())
		m := base.CloneFor(dev)
		f := NewFEKF()
		f.KCfg = f.KCfg.WithOpt3()
		f.KCfg.BlockSize = 128
		f.Pipeline = pipeline
		for s := 0; s < 2; s++ {
			if _, err := f.Step(m, ds, idx); err != nil {
				t.Fatal(err)
			}
		}
		return dev.Counters()
	}
	serial := run(false)
	pipelined := run(true)
	if pipelined.Kernels != serial.Kernels || pipelined.Flops != serial.Flops ||
		pipelined.Bytes != serial.Bytes || pipelined.ModeledNs != serial.ModeledNs {
		t.Fatalf("device totals diverged:\n pipelined %+v\n serial    %+v", pipelined, serial)
	}
	if pipelined.PhaseKerns != serial.PhaseKerns || pipelined.PhaseNs != serial.PhaseNs {
		t.Fatalf("phase attribution diverged:\n pipelined kerns %v ns %v\n serial    kerns %v ns %v",
			pipelined.PhaseKerns, pipelined.PhaseNs, serial.PhaseKerns, serial.PhaseNs)
	}
	if pipelined.LiveBytes != serial.LiveBytes || pipelined.PeakBytes != serial.PeakBytes {
		t.Fatalf("allocator state diverged:\n pipelined live %d peak %d\n serial    live %d peak %d",
			pipelined.LiveBytes, pipelined.PeakBytes, serial.LiveBytes, serial.PeakBytes)
	}
	if pipelined.PhaseKerns[device.PhaseOptimizer] == 0 {
		t.Fatal("no kernels charged to the optimizer phase")
	}
}
