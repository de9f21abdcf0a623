package experiments

import (
	"fmt"
	"io"

	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/md"
	"fekf/internal/optimize"
	"fekf/internal/train"
)

// Figure4 reproduces the quasi-learning-rate ablation (paper Figure 4):
// energy convergence of FEKF bs=32 on Cu with the weight-increment factor
// set to 1, √bs and bs.  It prints per-epoch per-atom energy RMSE series.
func Figure4(w io.Writer, opts Options) error {
	full, err := GenerateData("Cu", opts)
	if err != nil {
		return err
	}
	trainSet, _ := full.Split(opts.TestFrac, opts.Seed)
	fmt.Fprintln(w, "Figure 4: effect of the quasi-learning-rate factor on energy convergence")
	fmt.Fprintln(w, "(Cu, FEKF batch size 32; per-atom energy RMSE per epoch)")

	type series struct {
		name string
		vals []float64
	}
	var all []series
	for _, f := range []optimize.QuasiLRFactor{optimize.FactorOne, optimize.FactorSqrtBS, optimize.FactorLinearBS} {
		m, err := newModel(trainSet, deepmd.OptAll, opts.Seed)
		if err != nil {
			return err
		}
		opt := optimize.NewFEKF()
		opt.Factor = f
		opt.KCfg = opt.KCfg.WithOpt3()
		s := series{name: f.String()}
		res, err := train.Run(m, train.OptStepper{M: m, Opt: opt}, trainSet, train.Config{
			BatchSize: 32, MaxEpochs: opts.FEKFMaxEpochs, EvalSubset: 16, Seed: opts.Seed,
		})
		if err != nil {
			return err
		}
		for _, h := range res.History {
			s.vals = append(s.vals, h.Metrics.EnergyPerAtomRMSE)
		}
		all = append(all, s)
	}
	fmt.Fprintf(w, "%6s", "epoch")
	for _, s := range all {
		fmt.Fprintf(w, " %12s", "factor="+s.name)
	}
	fmt.Fprintln(w)
	for e := 0; e < len(all[0].vals); e++ {
		fmt.Fprintf(w, "%6d", e+1)
		for _, s := range all {
			if e < len(s.vals) {
				fmt.Fprintf(w, " %12.5f", s.vals[e])
			} else {
				fmt.Fprintf(w, " %12s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Figure7a formats the end-to-end training-time comparison (paper Figure
// 7(a)): Adam bs=1, RLEKF bs=1, FEKF bs=32 unoptimized, FEKF bs=32
// optimized, per system, to the shared accuracy target.  Wall seconds are
// host-measured; speedups relative to RLEKF, the paper's reference.
func Figure7a(w io.Writer, results []SystemResult) {
	fmt.Fprintln(w, "Figure 7(a): end-to-end training time to target (seconds; speedup vs RLEKF)")
	fmt.Fprintf(w, "%-6s %12s %12s %16s %16s %12s %12s\n",
		"System", "Adam bs1", "RLEKF bs1", "FEKF32", "FEKF32+opt", "alg.speedup", "opt.speedup")
	for _, r := range results {
		alg := "-"
		if r.FEKFBase.Converged && r.RLEKF.Converged && r.FEKFBase.WallSec > 0 {
			alg = fmt.Sprintf("%.2fx", r.RLEKF.WallSec/r.FEKFBase.WallSec)
		}
		opt := "-"
		if r.FEKF.Converged && r.FEKFBase.Converged && r.FEKF.WallSec > 0 {
			opt = fmt.Sprintf("%.2fx", r.FEKFBase.WallSec/r.FEKF.WallSec)
		}
		fmt.Fprintf(w, "%-6s %12.1f %12.1f %16s %16s %12s %12s\n",
			r.System, r.AdamBS1.WallSec, r.RLEKF.WallSec,
			fmtRun(r.FEKFBase), fmtRun(r.FEKF), alg, opt)
	}
}

func fmtRun(rs RunStats) string {
	mark := ""
	if !rs.Converged {
		mark = "*"
	}
	return fmt.Sprintf("%.1f%s", rs.WallSec, mark)
}

// KernelCounts is one bar group of Figure 7(b)/(c).
type KernelCounts struct {
	Level          deepmd.OptLevel
	EnergyKernels  int64
	ForceKernels   int64
	TotalPerIter   int64 // 1 energy + 4 force updates
	ForwardNs      float64
	GradientNs     float64
	OptimizerNs    float64
	TotalModeledNs float64
}

// Figure7bc runs one FEKF iteration at each optimization level on the Cu
// system at the paper's network size (batch 64, as in Section 5.3) and
// reports kernel-launch counts (Figure 7(b)) and the modeled iteration
// time split into forward / gradient / optimizer phases (Figure 7(c)).
func Figure7bc(w io.Writer, opts Options, paperScale bool) ([]KernelCounts, error) {
	full, err := GenerateData("Cu", opts)
	if err != nil {
		return nil, err
	}
	bs := 8
	if bs > full.Len() {
		bs = full.Len()
	}
	idx := make([]int, bs)
	for i := range idx {
		idx[i] = i
	}

	var out []KernelCounts
	for _, level := range []deepmd.OptLevel{deepmd.OptBaseline, deepmd.OptManualForce, deepmd.OptFused, deepmd.OptAll} {
		sys := deepmd.SnapshotSystem(full, &full.Snapshots[0])
		var cfg deepmd.Config
		if paperScale {
			spec, err := md.GetSystem("Cu")
			if err != nil {
				return nil, err
			}
			cfg = deepmd.PaperConfig(spec, sys)
		} else {
			cfg = deepmd.TinyConfig(sys)
		}
		m, err := deepmd.NewModel(cfg)
		if err != nil {
			return nil, err
		}
		m.Level = level
		m.Dev = device.New("fig7", device.A100())
		if err := m.InitFromDataset(full); err != nil {
			return nil, err
		}
		opt := optimize.NewFEKF()
		if level >= deepmd.OptAll {
			opt.KCfg = opt.KCfg.WithOpt3()
		}

		// warm-up step so one-time costs do not pollute the counts
		if _, err := opt.Step(m, full, idx); err != nil {
			return nil, err
		}

		// measured step: separate the energy update from the force updates
		// to reproduce the paper's two bar families.
		before := m.Dev.Counters()
		optE := *opt
		optE.ForceGroups = 0
		if _, err := optE.Step(m, full, idx); err != nil {
			return nil, err
		}
		afterEnergy := m.Dev.Counters()

		if _, err := opt.Step(m, full, idx); err != nil {
			return nil, err
		}
		afterFull := m.Dev.Counters()

		eDelta := afterEnergy.Sub(before)
		fullDelta := afterFull.Sub(afterEnergy)
		// energy-only step launches the force forward too (ForceGroups=0
		// still builds it); the difference isolates the 4 force updates.
		kc := KernelCounts{
			Level:          level,
			EnergyKernels:  eDelta.Kernels,
			ForceKernels:   (fullDelta.Kernels - eDelta.Kernels) / 4,
			TotalPerIter:   fullDelta.Kernels,
			ForwardNs:      fullDelta.PhaseNs[device.PhaseForward],
			GradientNs:     fullDelta.PhaseNs[device.PhaseGradient],
			OptimizerNs:    fullDelta.PhaseNs[device.PhaseOptimizer],
			TotalModeledNs: fullDelta.ModeledNs,
		}
		out = append(out, kc)
	}

	fmt.Fprintln(w, "Figure 7(b): simulated kernel launches per FEKF iteration (Cu)")
	fmt.Fprintf(w, "%-10s %14s %16s %14s\n", "config", "energy update", "per force update", "full iter")
	for _, kc := range out {
		fmt.Fprintf(w, "%-10s %14d %16d %14d\n", kc.Level, kc.EnergyKernels, kc.ForceKernels, kc.TotalPerIter)
	}
	base := out[0].TotalPerIter
	last := out[len(out)-1].TotalPerIter
	if base > 0 {
		fmt.Fprintf(w, "kernel reduction baseline -> opt3: %.0f%%\n", 100*float64(base-last)/float64(base))
	}

	fmt.Fprintln(w, "\nFigure 7(c): modeled iteration time split (ms)")
	fmt.Fprintf(w, "%-10s %10s %10s %10s %10s\n", "config", "forward", "gradient", "KF update", "total")
	for _, kc := range out {
		fmt.Fprintf(w, "%-10s %10.3f %10.3f %10.3f %10.3f\n", kc.Level,
			kc.ForwardNs/1e6, kc.GradientNs/1e6, kc.OptimizerNs/1e6, kc.TotalModeledNs/1e6)
	}
	if t0, t3 := out[0].TotalModeledNs, out[len(out)-1].TotalModeledNs; t3 > 0 {
		fmt.Fprintf(w, "iteration speedup baseline -> opt3: %.2fx\n", t0/t3)
	}
	return out, nil
}
