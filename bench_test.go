package fekf

// One benchmark per table and figure of the paper's evaluation, plus
// ablation micro-benchmarks for the design choices called out in
// DESIGN.md.  The full experiment harness (absolute numbers, convergence
// runs) lives in cmd/paper; these benches measure the steady-state cost of
// each measured operation so regressions in any reproduced pipeline are
// visible in `go test -bench`.

import (
	"math/rand"
	"sync"
	"testing"

	"fekf/internal/cluster"
	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/optimize"
	"fekf/internal/tensor"
)

var (
	benchOnce sync.Once
	benchDS   *dataset.Dataset
)

func benchData(b *testing.B) *dataset.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		ds, err := dataset.Generate("Cu", dataset.GenOptions{
			Snapshots: 48, SampleEvery: 4, EquilSteps: 30, Tiny: true, Seed: 17,
		})
		if err != nil {
			panic(err)
		}
		benchDS = ds
	})
	return benchDS
}

func benchModel(b *testing.B, level deepmd.OptLevel) *deepmd.Model {
	b.Helper()
	ds := benchData(b)
	sys := deepmd.SnapshotSystem(ds, &ds.Snapshots[0])
	m, err := deepmd.NewModel(deepmd.TinyConfig(sys))
	if err != nil {
		b.Fatal(err)
	}
	m.Level = level
	m.Dev = device.New("bench", device.A100())
	if err := m.InitFromDataset(ds); err != nil {
		b.Fatal(err)
	}
	return m
}

func batchIdx(n, bs int) []int {
	idx := make([]int, bs)
	for i := range idx {
		idx[i] = i % n
	}
	return idx
}

// BenchmarkTable1Adam measures the Adam step at the three batch sizes of
// Table 1; epochs-to-target come from `cmd/paper -exp table1`.
func BenchmarkTable1Adam(b *testing.B) {
	for _, bs := range []int{1, 32, 64} {
		b.Run(byBS(bs), func(b *testing.B) {
			ds := benchData(b)
			m := benchModel(b, deepmd.OptFused)
			opt := optimize.NewAdam()
			idx := batchIdx(ds.Len(), bs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := opt.Step(m, ds, idx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4FEKF measures the FEKF iteration of the Table 4
// configuration (batch 32, 1 energy + 4 force Kalman updates).
func BenchmarkTable4FEKF(b *testing.B) {
	ds := benchData(b)
	m := benchModel(b, deepmd.OptAll)
	opt := optimize.NewFEKF()
	opt.KCfg = opt.KCfg.WithOpt3()
	idx := batchIdx(ds.Len(), 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Step(m, ds, idx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7aRLEKF measures the per-sample RLEKF iteration that
// Figure 7(a)'s wall-clock baseline is built from.
func BenchmarkFigure7aRLEKF(b *testing.B) {
	ds := benchData(b)
	m := benchModel(b, deepmd.OptFused)
	opt := optimize.NewRLEKF()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Step(m, ds, []int{i % ds.Len()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7aNaiveEKF measures the fusiform baseline's step (per-
// sample Kalman updates then averaging), the costly dataflow FEKF avoids.
func BenchmarkFigure7aNaiveEKF(b *testing.B) {
	ds := benchData(b)
	m := benchModel(b, deepmd.OptFused)
	opt := optimize.NewNaiveEKF()
	idx := batchIdx(ds.Len(), 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Step(m, ds, idx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7bForward measures the forward+force pass per
// optimization level and reports the simulated kernel launches — the
// quantity on Figure 7(b)'s y-axis.
func BenchmarkFigure7bForward(b *testing.B) {
	for _, level := range []deepmd.OptLevel{deepmd.OptBaseline, deepmd.OptManualForce, deepmd.OptFused} {
		b.Run(level.String(), func(b *testing.B) {
			ds := benchData(b)
			m := benchModel(b, level)
			env, err := deepmd.BuildBatchEnv(m.Cfg, ds, batchIdx(ds.Len(), 8))
			if err != nil {
				b.Fatal(err)
			}
			m.Dev.Reset()
			out := m.Forward(env, true)
			_ = m.EnergyGrad(out, nil)
			kernels := m.Dev.Counters().Kernels
			out.Graph.Release()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := m.Forward(env, true)
				_ = m.EnergyGrad(o, nil)
				o.Graph.Release()
			}
			b.ReportMetric(float64(kernels), "kernels/pass")
		})
	}
}

// BenchmarkFigure7cIteration measures the full FEKF iteration per
// optimization level and reports the modeled device milliseconds that
// Figure 7(c) decomposes.
func BenchmarkFigure7cIteration(b *testing.B) {
	for _, level := range []deepmd.OptLevel{deepmd.OptBaseline, deepmd.OptAll} {
		b.Run(level.String(), func(b *testing.B) {
			ds := benchData(b)
			m := benchModel(b, level)
			opt := optimize.NewFEKF()
			if level >= deepmd.OptAll {
				opt.KCfg = opt.KCfg.WithOpt3()
			}
			idx := batchIdx(ds.Len(), 8)
			if _, err := opt.Step(m, ds, idx); err != nil {
				b.Fatal(err)
			}
			before := m.Dev.Counters()
			if _, err := opt.Step(m, ds, idx); err != nil {
				b.Fatal(err)
			}
			modeledMs := m.Dev.Counters().Sub(before).ModeledNs / 1e6
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := opt.Step(m, ds, idx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(modeledMs, "modeled-ms/iter")
		})
	}
}

// BenchmarkTable5Distributed measures the distributed FEKF step across
// simulated GPU counts (the Table 5 configurations) and reports the wire
// volume per iteration.
func BenchmarkTable5Distributed(b *testing.B) {
	for _, gpus := range []int{1, 4} {
		b.Run(byGPU(gpus), func(b *testing.B) {
			ds := benchData(b)
			m := benchModel(b, deepmd.OptAll)
			dp := cluster.NewDataParallelFEKF(gpus, m)
			dp.FEKF.KCfg = dp.FEKF.KCfg.WithOpt3()
			idx := batchIdx(ds.Len(), 8*gpus)
			if _, err := dp.Step(ds, idx); err != nil {
				b.Fatal(err)
			}
			wire0 := dp.Ring().WireBytes()
			if _, err := dp.Step(ds, idx); err != nil {
				b.Fatal(err)
			}
			perIter := float64(dp.Ring().WireBytes()-wire0) / 1024
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dp.Step(ds, idx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(perIter, "wire-KiB/iter")
		})
	}
}

// BenchmarkFigure4Factors measures the FEKF step under the three
// quasi-learning-rate factors (identical cost; the bench guards that the
// ablation harness stays cheap).
func BenchmarkFigure4Factors(b *testing.B) {
	for _, f := range []optimize.QuasiLRFactor{optimize.FactorOne, optimize.FactorSqrtBS, optimize.FactorLinearBS} {
		b.Run(f.String(), func(b *testing.B) {
			ds := benchData(b)
			m := benchModel(b, deepmd.OptAll)
			opt := optimize.NewFEKF()
			opt.Factor = f
			idx := batchIdx(ds.Len(), 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := opt.Step(m, ds, idx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMemoryPUpdate is the Section 5.3 ablation at bench scale: the
// framework-style P update (KKᵀ materialized) against the handwritten
// fused kernel.
func BenchmarkMemoryPUpdate(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(23))
	k := tensor.RandNormal(n, 1, 1, rng)
	for _, fused := range []bool{false, true} {
		name := "framework"
		if fused {
			name = "fused"
		}
		b.Run(name, func(b *testing.B) {
			p := tensor.Eye(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fused {
					tensor.PUpdateFusedSlab(p, 0, k.Data, 1.2, 0.98)
				} else {
					tensor.PUpdateNaive(p, k, 1.2, 0.98)
				}
			}
		})
	}
}

// BenchmarkCommAllreduce measures the in-process ring allreduce at the
// gradient size of the tiny model.
func BenchmarkCommAllreduce(b *testing.B) {
	for _, ranks := range []int{2, 4, 8} {
		b.Run(byGPU(ranks), func(b *testing.B) {
			const n = 1251
			data := make([][]float64, ranks)
			for w := range data {
				data[w] = make([]float64, n)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ring := NewBenchRing(ranks)
				var wg sync.WaitGroup
				for w := 0; w < ranks; w++ {
					wg.Add(1)
					go func(rank int) {
						defer wg.Done()
						ring.Allreduce(rank, data[rank])
					}(w)
				}
				wg.Wait()
			}
		})
	}
}

// NewBenchRing builds a communicator with the paper's interconnect model.
func NewBenchRing(ranks int) *cluster.Ring { return cluster.NewRing(ranks, cluster.RoCE25()) }

// BenchmarkAblationForcePath compares the generic-autograd and
// hand-derived (Eq. 4) force paths — the Opt1 design choice.
func BenchmarkAblationForcePath(b *testing.B) {
	for _, level := range []deepmd.OptLevel{deepmd.OptBaseline, deepmd.OptManualForce} {
		b.Run(level.String(), func(b *testing.B) {
			ds := benchData(b)
			m := benchModel(b, level)
			env, err := deepmd.BuildBatchEnv(m.Cfg, ds, batchIdx(ds.Len(), 8))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := m.Forward(env, true)
				o.Graph.Release()
			}
		})
	}
}

// BenchmarkAblationPgCache compares the Kalman update with and without
// the Opt3 Pg-cache (the second P·g GEMM the paper removes).
func BenchmarkAblationPgCache(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(29))
	g := make([]float64, n)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	for _, cached := range []bool{false, true} {
		name := "recompute"
		if cached {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			cfg := optimize.DefaultKalmanConfig()
			cfg.FusedPUpdate = true
			cfg.CachePg = cached
			ks := optimize.NewKalmanState(cfg, []int{n}, device.New("b", device.A100()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ks.Update(g, 0.1, 1)
			}
		})
	}
}

// setBenchWorkers pins the tensor pool's worker count for one
// sub-benchmark and restores the previous setting on cleanup.
func setBenchWorkers(b *testing.B, w int) {
	b.Helper()
	prev := tensor.SetWorkers(w)
	b.Cleanup(func() { tensor.SetWorkers(prev) })
}

// benchWorkerCounts are the host-parallelism points of the speedup curve;
// workers1 is the serial baseline the parallel results must match bitwise.
var benchWorkerCounts = []int{1, 2, 4, 8}

// BenchmarkKalmanBlockUpdate measures the full blocked Kalman measurement
// update (P·g, gain, fused P update, weight increment over four
// 1024-parameter blocks) across pool worker counts.  The blocks are
// independent, so the per-block loop and the row-sharded kernels
// scale with host cores while staying bitwise identical to workers1.
func BenchmarkKalmanBlockUpdate(b *testing.B) {
	const nParams = 4096
	rng := rand.New(rand.NewSource(31))
	g := make([]float64, nParams)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	for _, w := range benchWorkerCounts {
		b.Run(byWorkers(w), func(b *testing.B) {
			setBenchWorkers(b, w)
			cfg := optimize.DefaultKalmanConfig().WithOpt3()
			cfg.BlockSize = 1024
			ks := optimize.NewKalmanState(cfg, []int{nParams}, device.New("b", device.A100()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ks.Update(g, 0.1, 1)
			}
		})
	}
}

// BenchmarkFEKFPipeline measures the full FEKF iteration with the
// two-stage force-group pipeline off and on, across pool worker counts.
// The pipelined schedule overlaps each measurement's covariance drain with
// the next group's backward, so its win is the drain time it hides; the
// results are bitwise identical either way (pipeline_test.go).
func BenchmarkFEKFPipeline(b *testing.B) {
	for _, pipelined := range []bool{false, true} {
		name := "serial"
		if pipelined {
			name = "pipelined"
		}
		for _, w := range benchWorkerCounts {
			b.Run(name+"/"+byWorkers(w), func(b *testing.B) {
				setBenchWorkers(b, w)
				ds := benchData(b)
				m := benchModel(b, deepmd.OptAll)
				opt := optimize.NewFEKF()
				opt.KCfg = opt.KCfg.WithOpt3()
				opt.Pipeline = pipelined
				idx := batchIdx(ds.Len(), 16)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := opt.Step(m, ds, idx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkKalmanPUpdateFused measures the row-walk single-pass P-update
// kernel alone at the tiny-Cu block edge (n = 1249, the P block perfbench's
// fleet_repl and serve_mixed drain, reported there as optimize.drain_ms)
// and at the paper-scale block edge (n = 2048).
func BenchmarkKalmanPUpdateFused(b *testing.B) {
	for _, n := range []int{1249, 2048} {
		rng := rand.New(rand.NewSource(37))
		k := tensor.RandNormal(n, 1, 1, rng)
		for _, w := range benchWorkerCounts {
			b.Run("n"+itoa(n)+"/"+byWorkers(w), func(b *testing.B) {
				setBenchWorkers(b, w)
				p := tensor.Eye(n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tensor.PUpdateFusedSlab(p, 0, k.Data, 1.2, 0.98)
				}
			})
		}
	}
}

// BenchmarkGEMMWorkers measures the row-sharded square GEMM across pool
// worker counts.
func BenchmarkGEMMWorkers(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(41))
	x := tensor.RandNormal(n, n, 1, rng)
	y := tensor.RandNormal(n, n, 1, rng)
	for _, w := range benchWorkerCounts {
		b.Run(byWorkers(w), func(b *testing.B) {
			setBenchWorkers(b, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = tensor.MatMul(x, y)
			}
		})
	}
}

// BenchmarkGEMMSymMatVec measures the row-sharded mat-vec on P — the P·g
// product that dominates each Kalman block — at the block edge of the
// speedup criterion.
func BenchmarkGEMMSymMatVec(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(43))
	p := tensor.RandNormal(n, n, 1, rng)
	x := tensor.RandNormal(n, 1, 1, rng)
	y := make([]float64, n)
	for _, w := range benchWorkerCounts {
		b.Run(byWorkers(w), func(b *testing.B) {
			setBenchWorkers(b, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatVecInto(y, p, x.Data)
			}
		})
	}
}

func byBS(bs int) string     { return "bs" + itoa(bs) }
func byGPU(g int) string     { return "gpus" + itoa(g) }
func byWorkers(w int) string { return "workers" + itoa(w) }
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
