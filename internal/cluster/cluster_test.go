package cluster

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/optimize"
)

// runAllreduce drives the collective from size goroutines.
func runAllreduce(r *Ring, data [][]float64) {
	var wg sync.WaitGroup
	for rank := range data {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			r.Allreduce(rank, data[rank])
		}(rank)
	}
	wg.Wait()
}

func TestRingAllreduceMatchesDirectSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{1, 2, 3, 4, 7} {
		for _, n := range []int{1, 3, 16, 100} {
			ring := NewRing(size, RoCE25())
			data := make([][]float64, size)
			want := make([]float64, n)
			for w := 0; w < size; w++ {
				data[w] = make([]float64, n)
				for i := range data[w] {
					data[w][i] = rng.NormFloat64()
					want[i] += data[w][i]
				}
			}
			runAllreduce(ring, data)
			for w := 0; w < size; w++ {
				for i := 0; i < n; i++ {
					if math.Abs(data[w][i]-want[i]) > 1e-12 {
						t.Fatalf("size %d n %d rank %d elem %d: %v want %v",
							size, n, w, i, data[w][i], want[i])
					}
				}
			}
		}
	}
}

// Property: allreduce result is identical on every rank for random inputs.
func TestPropAllreduceRanksAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 2 + rng.Intn(4)
		n := 1 + rng.Intn(40)
		ring := NewRing(size, RoCE25())
		data := make([][]float64, size)
		for w := range data {
			data[w] = make([]float64, n)
			for i := range data[w] {
				data[w][i] = rng.NormFloat64()
			}
		}
		runAllreduce(ring, data)
		for w := 1; w < size; w++ {
			for i := 0; i < n; i++ {
				if data[w][i] != data[0][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestRingWireBytesAccounting(t *testing.T) {
	const size, n = 4, 64
	ring := NewRing(size, RoCE25())
	data := make([][]float64, size)
	for w := range data {
		data[w] = make([]float64, n)
	}
	runAllreduce(ring, data)
	// each rank sends 2(size-1) chunks of n/size elements
	want := int64(size) * 2 * int64(size-1) * int64(n/size) * 8
	if got := ring.WireBytes(); got != want {
		t.Fatalf("wire bytes = %d want %d", got, want)
	}
	if ring.ModeledNs() <= 0 {
		t.Fatal("modeled comm time not accounted")
	}
}

func TestRingSizeOneIsFree(t *testing.T) {
	ring := NewRing(1, RoCE25())
	data := []float64{1, 2, 3}
	ring.Allreduce(0, data)
	if ring.WireBytes() != 0 {
		t.Fatal("single-rank allreduce must not communicate")
	}
}

func clusterSetup(t *testing.T) (*dataset.Dataset, *deepmd.Model) {
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

// TestDistributedMatchesSingleNode: 2-rank data-parallel FEKF must produce
// the same weights as single-node FEKF on the same batch, up to
// floating-point reduction order.
func TestDistributedMatchesSingleNode(t *testing.T) {
	ds, m := clusterSetup(t)
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}

	single := optimize.NewFEKF()
	mS := m.CloneFor(device.New("s", device.A100()))
	for step := 0; step < 2; step++ {
		if _, err := single.Step(mS, ds, idx); err != nil {
			t.Fatal(err)
		}
	}

	dp := NewDataParallelFEKF(2, m)
	for step := 0; step < 2; step++ {
		if _, err := dp.Step(ds, idx); err != nil {
			t.Fatal(err)
		}
	}

	ws := mS.Params.FlattenValues()
	wd := dp.Model().Params.FlattenValues()
	for i := range ws {
		if math.Abs(ws[i]-wd[i]) > 1e-8*(1+math.Abs(ws[i])) {
			t.Fatalf("weight %d: single %v distributed %v", i, ws[i], wd[i])
		}
	}
}

// TestReplicasStayConsistent is the paper's no-P-communication claim: all
// ranks' weights (and hence P) remain identical without exchanging P.
func TestReplicasStayConsistent(t *testing.T) {
	ds, m := clusterSetup(t)
	dp := NewDataParallelFEKF(4, m)
	for step := 0; step < 3; step++ {
		if _, err := dp.Step(ds, []int{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
			t.Fatal(err)
		}
	}
	if drift := dp.ReplicaDrift(); drift > 1e-9 {
		t.Fatalf("replicas drifted by %v", drift)
	}
}

// TestCommunicationVolumeIsGradientsOnly checks the Section 3.3 analysis:
// per iteration the wire carries O(updates · 2·N) doubles (gradients +
// the two reduction scalars), nothing of the O(N·N_b) covariance.
func TestCommunicationVolumeIsGradientsOnly(t *testing.T) {
	ds, m := clusterSetup(t)
	dp := NewDataParallelFEKF(2, m)
	if _, err := dp.Step(ds, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	n := int64(m.Params.NumParams())
	// 5 updates (1 energy + 4 force), each allreducing n+2 doubles over 2
	// ranks: each rank sends 2(r-1)=2 chunks covering (n+2) elements total.
	wantMax := 5 * 2 * 2 * (n + 2) * 8
	if got := dp.Ring().WireBytes(); got > wantMax {
		t.Fatalf("wire bytes %d exceed gradient-only budget %d", got, wantMax)
	}
	// P would add N_b² ≫ n doubles per block; verify we are far below one
	// block's worth.
	pBytes := dp.states[0].PBytes()
	if got := dp.Ring().WireBytes(); got >= pBytes {
		t.Fatalf("wire bytes %d not below a single P exchange %d", got, pBytes)
	}
}

func TestModeledIterationTime(t *testing.T) {
	ds, m := clusterSetup(t)
	dp := NewDataParallelFEKF(2, m)
	if _, err := dp.Step(ds, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if dp.ModeledIterationNs() <= 0 {
		t.Fatal("modeled time not accounted")
	}
	if dp.Name() != "FEKF[2 GPUs]" {
		t.Fatalf("name = %q", dp.Name())
	}
	if dp.ring.Size() != 2 || len(dp.devs) != 2 {
		t.Fatal("worker bookkeeping wrong")
	}
}

// TestAllreduceModeledTimeChargesMaxChunk: with uneven chunks (size does
// not divide the element count) every ring step must be charged for the
// largest chunk in flight, since all chunks move concurrently and the
// busiest link bounds the step.
func TestAllreduceModeledTimeChargesMaxChunk(t *testing.T) {
	const size, n = 3, 10 // chunk sizes 3,3,4 → max 4
	ring := NewRing(size, RoCE25())
	data := make([][]float64, size)
	for w := range data {
		data[w] = make([]float64, n)
	}
	runAllreduce(ring, data)
	model := RoCE25()
	steps := 2 * (size - 1)
	want := float64(steps) * (model.StepLatencyNs + 4*8/model.BytesPerNs)
	if got := ring.ModeledNs(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("modeled ns = %v want %v (max-chunk charging)", got, want)
	}
}

// TestInjectedRankFailureKeepsReplicasConsistent: when one rank's
// environment build fails mid-step, every rank must still apply the
// identical reduced update, so the replicas stay bitwise consistent and
// training can continue.
func TestInjectedRankFailureKeepsReplicasConsistent(t *testing.T) {
	ds, m := clusterSetup(t)
	dp := NewDataParallelFEKF(3, m)
	idx := []int{0, 1, 2, 3, 4, 5}
	if _, err := dp.Step(ds, idx); err != nil {
		t.Fatal(err)
	}
	failures := 0
	dp.envFail = func(rank int) error {
		if rank == 1 {
			failures++
			return errors.New("injected env failure")
		}
		return nil
	}
	if _, err := dp.Step(ds, idx); err == nil {
		t.Fatal("injected failure must surface as a step error")
	}
	if failures == 0 {
		t.Fatal("failure hook never fired")
	}
	if drift := dp.ReplicaDrift(); drift != 0 {
		t.Fatalf("replicas drifted by %v after a rank failure", drift)
	}
	// The survivors' data must still have advanced training: a healthy
	// follow-up step keeps the replicas exact.
	dp.envFail = nil
	if _, err := dp.Step(ds, idx); err != nil {
		t.Fatal(err)
	}
	if drift := dp.ReplicaDrift(); drift != 0 {
		t.Fatalf("replicas drifted by %v on the step after a failure", drift)
	}
}

// TestAllRanksFailingAbortsAtomically: if no rank contributes data, the
// step must abort before mutating any optimizer or weight state.
func TestAllRanksFailingAbortsAtomically(t *testing.T) {
	ds, m := clusterSetup(t)
	dp := NewDataParallelFEKF(2, m)
	idx := []int{0, 1, 2, 3}
	if _, err := dp.Step(ds, idx); err != nil {
		t.Fatal(err)
	}
	before := dp.Model().Params.FlattenValues()
	lambda := dp.states[0].Lambda
	dp.envFail = func(rank int) error { return errors.New("injected total failure") }
	if _, err := dp.Step(ds, idx); err == nil {
		t.Fatal("total failure must surface as a step error")
	}
	after := dp.Model().Params.FlattenValues()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("weight %d mutated by an all-failed step", i)
		}
	}
	if dp.states[0].Lambda != lambda {
		t.Fatal("lambda schedule advanced on an all-failed step")
	}
	if drift := dp.ReplicaDrift(); drift != 0 {
		t.Fatalf("replicas drifted by %v after total failure", drift)
	}
}

// TestDistributedStepReportsForceABE: the distributed StepInfo must honor
// the single-device contract and report the batch-global mean absolute
// force-component error.
func TestDistributedStepReportsForceABE(t *testing.T) {
	ds, m := clusterSetup(t)
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}

	single := optimize.NewFEKF()
	mS := m.CloneFor(device.New("s", device.A100()))
	infoS, err := single.Step(mS, ds, idx)
	if err != nil {
		t.Fatal(err)
	}

	dp := NewDataParallelFEKF(2, m)
	infoD, err := dp.Step(ds, idx)
	if err != nil {
		t.Fatal(err)
	}
	if infoD.ForceABE == 0 {
		t.Fatal("distributed StepInfo dropped ForceABE")
	}
	if rel := math.Abs(infoD.ForceABE-infoS.ForceABE) / infoS.ForceABE; rel > 1e-8 {
		t.Fatalf("distributed ForceABE %v vs single-device %v (rel %v)",
			infoD.ForceABE, infoS.ForceABE, rel)
	}
	if infoD.EnergyABE == 0 {
		t.Fatal("distributed StepInfo dropped EnergyABE")
	}
}
