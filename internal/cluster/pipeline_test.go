package cluster

import (
	"errors"
	"testing"

	"fekf/internal/tensor"
)

// runClusterSteps drives `steps` distributed FEKF iterations on a fresh
// 3-rank trainer cloned from the shared base model.
func runClusterSteps(t *testing.T, pipeline bool, groups, ranks, steps int) *DataParallelFEKF {
	t.Helper()
	ds, m := clusterSetup(t)
	dp := NewDataParallelFEKF(ranks, m)
	dp.FEKF.Pipeline = pipeline
	dp.FEKF.ForceGroups = groups
	idx := []int{0, 1, 2, 3, 4, 5}
	for s := 0; s < steps; s++ {
		if _, err := dp.Step(ds, idx); err != nil {
			t.Fatal(err)
		}
	}
	return dp
}

// TestPipelinedDistributedBitwiseMatchesSerial extends the equivalence
// sweep across ranks: on a 3-rank cluster, overlapping each group's ring
// allreduce with the previous group's replicated P drain must leave the
// weights, P replicas and λ bitwise identical to the serial schedule — at
// several worker counts and force-group counts — and the replicas
// themselves must not drift.
func TestPipelinedDistributedBitwiseMatchesSerial(t *testing.T) {
	for _, groups := range []int{1, 2, 4} {
		prev := tensor.SetWorkers(1)
		ser := runClusterSteps(t, false, groups, 3, 2)
		tensor.SetWorkers(prev)
		wS := ser.Model().Params.FlattenValues()
		for _, workers := range []int{1, 4} {
			prev := tensor.SetWorkers(workers)
			pip := runClusterSteps(t, true, groups, 3, 2)
			tensor.SetWorkers(prev)
			if drift := pip.ReplicaDrift(); drift != 0 {
				t.Fatalf("groups %d workers %d: pipelined replicas drifted by %v", groups, workers, drift)
			}
			wP := pip.Model().Params.FlattenValues()
			for i := range wS {
				if wP[i] != wS[i] {
					t.Fatalf("groups %d workers %d: weight[%d] = %v (pipelined) vs %v (serial)",
						groups, workers, i, wP[i], wS[i])
				}
			}
			for b := range ser.states[0].P {
				for i, v := range ser.states[0].P[b].Data {
					if pip.states[0].P[b].Data[i] != v {
						t.Fatalf("groups %d workers %d: P[%d] elem %d diverged", groups, workers, b, i)
					}
				}
			}
			if pip.states[0].Lambda != ser.states[0].Lambda {
				t.Fatalf("groups %d workers %d: λ %v vs %v",
					groups, workers, pip.states[0].Lambda, ser.states[0].Lambda)
			}
		}
	}
}

// TestPipelinedRankFailureBitwiseMatchesSerial: the zero-partial failure
// path must survive the overlap unchanged — a step with an injected rank
// failure leaves every replica bitwise identical between the pipelined and
// serial schedules, with zero drift, and training continues cleanly.
func TestPipelinedRankFailureBitwiseMatchesSerial(t *testing.T) {
	run := func(pipeline bool) *DataParallelFEKF {
		ds, m := clusterSetup(t)
		dp := NewDataParallelFEKF(3, m)
		dp.FEKF.Pipeline = pipeline
		idx := []int{0, 1, 2, 3, 4, 5}
		if _, err := dp.Step(ds, idx); err != nil {
			t.Fatal(err)
		}
		dp.envFail = func(rank int) error {
			if rank == 1 {
				return errors.New("injected env failure")
			}
			return nil
		}
		if _, err := dp.Step(ds, idx); err == nil {
			t.Fatal("injected failure must surface as a step error")
		}
		dp.envFail = nil
		if _, err := dp.Step(ds, idx); err != nil {
			t.Fatal(err)
		}
		return dp
	}
	ser := run(false)
	pip := run(true)
	if drift := pip.ReplicaDrift(); drift != 0 {
		t.Fatalf("pipelined replicas drifted by %v across a rank failure", drift)
	}
	wS := ser.Model().Params.FlattenValues()
	wP := pip.Model().Params.FlattenValues()
	for i := range wS {
		if wP[i] != wS[i] {
			t.Fatalf("weight[%d] = %v (pipelined) vs %v (serial) after rank failure", i, wP[i], wS[i])
		}
	}
	if pip.states[0].Lambda != ser.states[0].Lambda {
		t.Fatal("λ diverged across the failure path")
	}
}

// TestPipelinedClusterAccountingMatchesSerial: overlapping collectives
// with the replicated P drain must not change what the simulation charges
// — identical wire bytes, modeled communication time, collective count and
// per-rank device counters with the pipeline on and off (no stage is
// double-charged, none is dropped).  Opt3 keeps the drain allocation-free
// so the per-rank allocator state must also agree exactly.
func TestPipelinedClusterAccountingMatchesSerial(t *testing.T) {
	run := func(pipeline bool) *DataParallelFEKF {
		ds, m := clusterSetup(t)
		dp := NewDataParallelFEKF(2, m)
		dp.FEKF.KCfg = dp.FEKF.KCfg.WithOpt3()
		dp.FEKF.Pipeline = pipeline
		idx := []int{0, 1, 2, 3}
		for s := 0; s < 2; s++ {
			if _, err := dp.Step(ds, idx); err != nil {
				t.Fatal(err)
			}
		}
		return dp
	}
	ser := run(false)
	pip := run(true)
	if pip.Ring().WireBytes() != ser.Ring().WireBytes() {
		t.Fatalf("wire bytes %d (pipelined) vs %d (serial)", pip.Ring().WireBytes(), ser.Ring().WireBytes())
	}
	if pip.Ring().ModeledNs() != ser.Ring().ModeledNs() {
		t.Fatalf("modeled comm ns %v (pipelined) vs %v (serial)", pip.Ring().ModeledNs(), ser.Ring().ModeledNs())
	}
	// 2 steps × (1 energy + 4 force + 1 diagnostic) collectives
	if want := int64(2 * 6); pip.Ring().Ops() != want || ser.Ring().Ops() != want {
		t.Fatalf("collective ops: pipelined %d serial %d want %d", pip.Ring().Ops(), ser.Ring().Ops(), want)
	}
	for r := range pip.devs {
		cp, cs := pip.devs[r].Counters(), ser.devs[r].Counters()
		if cp.Kernels != cs.Kernels || cp.Flops != cs.Flops || cp.Bytes != cs.Bytes ||
			cp.ModeledNs != cs.ModeledNs || cp.PhaseKerns != cs.PhaseKerns || cp.PhaseNs != cs.PhaseNs {
			t.Fatalf("rank %d device counters diverged:\n pipelined %+v\n serial    %+v", r, cp, cs)
		}
		if cp.LiveBytes != cs.LiveBytes || cp.PeakBytes != cs.PeakBytes {
			t.Fatalf("rank %d allocator diverged: live %d/%d peak %d/%d",
				r, cp.LiveBytes, cs.LiveBytes, cp.PeakBytes, cs.PeakBytes)
		}
	}
}
