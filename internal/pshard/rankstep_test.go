package pshard

import (
	"fmt"
	"sync"
	"testing"

	"fekf/internal/cluster"
	"fekf/internal/cluster/tcptransport"
	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/optimize"
)

func stepSetup(t *testing.T) (*dataset.Dataset, *deepmd.Model) {
	t.Helper()
	ds, err := dataset.Generate("Cu", dataset.GenOptions{
		Snapshots: 8, SampleEvery: 4, EquilSteps: 20, Tiny: true, Seed: 3,
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

// shardedCfg uses a small block size so the tiny test model still splits
// into several P blocks worth sharding.
func shardedCfg() optimize.KalmanConfig {
	cfg := optimize.DefaultKalmanConfig().WithOpt3()
	cfg.BlockSize = 64
	return cfg
}

func chunk(idx []int, rank, size int) []int {
	lo := rank * len(idx) / size
	hi := (rank + 1) * len(idx) / size
	return idx[lo:hi]
}

// runShardedSteps drives `steps` full sharded FEKF steps at the given rank
// count over the given ring and returns the rank-0 weights plus the
// sharded states for P reassembly.
func runShardedSteps(t *testing.T, ring *cluster.Ring, ds *dataset.Dataset, base *deepmd.Model, ranks, steps int, idx []int) ([]float64, []*optimize.KalmanState) {
	t.Helper()
	cfg := shardedCfg()
	blocks := optimize.SplitBlocks(base.Params.LayerSizes(), cfg.BlockSize)
	assign := Partition(blocks, ranks)
	var models []*deepmd.Model
	var states []*optimize.KalmanState
	for r := 0; r < ranks; r++ {
		dev := device.New(fmt.Sprintf("psgpu%d", r), device.A100())
		models = append(models, base.CloneFor(dev))
		states = append(states, optimize.NewSlabState(cfg, assign.Blocks, assign.Owners[r], dev))
	}
	f := optimize.NewFEKF()
	f.Pipeline = true
	p := f.StepParams(len(idx), ds.Snapshots[idx[0]].NumAtoms())
	for s := 0; s < steps; s++ {
		var wg sync.WaitGroup
		errs := make([]error, ranks)
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				_, errs[rank] = optimize.RankStep(ring, rank, models[rank], Over(states[rank], rank, assign.Segments(), ring), p,
					ds, chunk(idx, rank, ranks), nil)
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("step %d rank %d: %v", s, r, err)
			}
		}
	}
	// Every rank must hold identical weights.
	ref := models[0].Params.FlattenValues()
	for r := 1; r < ranks; r++ {
		if !bitsEqual(models[r].Params.FlattenValues(), ref) {
			t.Fatalf("rank %d weights drifted from rank 0", r)
		}
	}
	return ref, states
}

// runSingleHost runs the identical schedule on the single-host FEKF (same
// kernel config, full batch, one device, no collectives at all).
func runSingleHost(t *testing.T, ds *dataset.Dataset, base *deepmd.Model, steps int, idx []int) ([]float64, *optimize.KalmanState) {
	t.Helper()
	dev := device.New("single", device.A100())
	m := base.CloneFor(dev)
	f := optimize.NewFEKF()
	f.KCfg = shardedCfg()
	f.Pipeline = true
	for s := 0; s < steps; s++ {
		if _, err := f.Step(m, ds, idx); err != nil {
			t.Fatalf("single-host step %d: %v", s, err)
		}
	}
	return m.Params.FlattenValues(), f.State()
}

// runReplicated runs the same schedule through the unsharded distributed
// pipeline — optimize.RankStep with every rank holding a full P replica —
// the reference the sharded step must match at rank counts > 1 (the ring
// allreduce fixes the gradient summation order, which differs bitwise
// from one full-batch backward; sharding must not change it further).
func runReplicated(t *testing.T, ds *dataset.Dataset, base *deepmd.Model, ranks, steps int, idx []int) ([]float64, *optimize.KalmanState) {
	t.Helper()
	cfg := shardedCfg()
	ring := cluster.NewRing(ranks, cluster.RoCE25())
	var models []*deepmd.Model
	var states []*optimize.KalmanState
	for r := 0; r < ranks; r++ {
		dev := device.New(fmt.Sprintf("repgpu%d", r), device.A100())
		m := base.CloneFor(dev)
		models = append(models, m)
		states = append(states, optimize.NewKalmanState(cfg, m.Params.LayerSizes(), dev))
	}
	f := optimize.NewFEKF()
	f.Pipeline = true
	p := f.StepParams(len(idx), ds.Snapshots[idx[0]].NumAtoms())
	for s := 0; s < steps; s++ {
		var wg sync.WaitGroup
		errs := make([]error, ranks)
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				_, errs[rank] = optimize.RankStep(ring, rank, models[rank], states[rank], p,
					ds, chunk(idx, rank, ranks), nil)
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("replicated step %d rank %d: %v", s, r, err)
			}
		}
	}
	return models[0].Params.FlattenValues(), states[0]
}

// TestRankStepMatchesUnsharded is the tentpole's end-to-end contract:
// sharded FEKF produces bit-identical weights, λ and reassembled P to the
// unsharded pipeline at every rank count — at R=1 against the single-host
// optimize.FEKF.Step itself (no collectives anywhere), at R ∈ {2,3,4}
// against the full-P-per-rank replicated pipeline over the same ring size
// (the funnel allreduce order is part of the reference there).
func TestRankStepMatchesUnsharded(t *testing.T) {
	ds, base := stepSetup(t)
	idx := []int{0, 1, 2, 3, 4, 5}
	const steps = 2
	for ranks := 1; ranks <= 4; ranks++ {
		var refW []float64
		var refKS *optimize.KalmanState
		if ranks == 1 {
			refW, refKS = runSingleHost(t, ds, base, steps, idx)
		} else {
			refW, refKS = runReplicated(t, ds, base, ranks, steps, idx)
		}
		w, states := runShardedSteps(t, cluster.NewRing(ranks, cluster.RoCE25()), ds, base, ranks, steps, idx)
		if !bitsEqual(w, refW) {
			t.Fatalf("R=%d: sharded weights diverge from unsharded", ranks)
		}
		assertStatesMatchKalman(t, states, refKS)
	}
}

// TestRankStepMatchesUnshardedTCP repeats the contract over real TCP
// loopback endpoints against the chan-transport unsharded reference: the
// exchange collective and the funnel allreduce must both be
// bit-transparent on the wire.
func TestRankStepMatchesUnshardedTCP(t *testing.T) {
	ds, base := stepSetup(t)
	idx := []int{0, 1, 2, 3}
	const steps = 1
	for _, ranks := range []int{2, 3} {
		refW, refKS := runReplicated(t, ds, base, ranks, steps, idx)
		g, err := tcptransport.NewLoopbackGroup(ranks, tcptransport.Options{RingID: fmt.Sprintf("%s-%d", t.Name(), ranks)})
		if err != nil {
			t.Fatalf("loopback group: %v", err)
		}
		ring := cluster.NewRingOver(g, cluster.RoCE25())
		w, states := runShardedSteps(t, ring, ds, base, ranks, steps, idx)
		g.Close()
		if !bitsEqual(w, refW) {
			t.Fatalf("R=%d over TCP: sharded weights diverge from unsharded", ranks)
		}
		assertStatesMatchKalman(t, states, refKS)
	}
}

// TestRankStepEmptyShare covers the idle-rank path: a rank with no local
// frames contributes zero partials but runs every collective (including
// the P·g exchange for the rows it owns) and ends bit-identical.
func TestRankStepEmptyShare(t *testing.T) {
	ds, base := stepSetup(t)
	idx := []int{0, 1, 2} // 4 ranks, 3 frames: one rank gets an empty chunk
	const ranks = 4
	refW, refKS := runReplicated(t, ds, base, ranks, 1, idx)
	w, states := runShardedSteps(t, cluster.NewRing(ranks, cluster.RoCE25()), ds, base, ranks, 1, idx)
	if !bitsEqual(w, refW) {
		t.Fatal("empty-share sharded weights diverge from unsharded")
	}
	assertStatesMatchKalman(t, states, refKS)
}
