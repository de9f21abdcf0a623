package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"fekf/internal/cluster"
	"fekf/internal/deepmd"
	"fekf/internal/md"
	"fekf/internal/optimize"
	"fekf/internal/train"
)

// Table1 formats the Adam batch-size convergence study (paper Table 1):
// epochs to reach the baseline energy RMSE at batch sizes 1/32/64 and the
// epoch-growth factors.
func Table1(w io.Writer, results []SystemResult) {
	fmt.Fprintln(w, "Table 1: Adam-based DeePMD convergence under different training batch sizes")
	fmt.Fprintln(w, "(epochs to reach the bs=1 baseline per-atom energy RMSE; '-' = never reached)")
	fmt.Fprintf(w, "%-6s %-22s %6s %6s %6s %10s %10s\n",
		"System", "Energy RMSE(eV/atom)", "bs=1", "bs=32", "bs=64", "grow 32/1", "grow 64/32")
	for _, r := range results {
		fmt.Fprintf(w, "%-6s %-22s %6s %6s %6s %10s %10s\n",
			r.System,
			fmt.Sprintf("%.5f", r.Target),
			markEpochs(r.AdamBS1), markEpochs(r.AdamBS32), markEpochs(r.AdamBS64),
			ratio(r.AdamBS32, r.AdamBS1), ratio(r.AdamBS64, r.AdamBS32))
	}
}

// Table3 prints the dataset description: the paper's Table 3 values next
// to what this reproduction generates.
func Table3(w io.Writer, opts Options) {
	fmt.Fprintln(w, "Table 3: dataset description (paper values | this reproduction)")
	fmt.Fprintf(w, "%-6s %-22s %9s %18s %18s\n",
		"System", "Temperatures(K)", "Step(fs)", "Snapshots(p|r)", "Atoms(p|tiny)")
	for _, name := range md.SystemNames() {
		spec, err := md.GetSystem(name)
		if err != nil {
			fmt.Fprintf(w, "%-6s error: %v\n", name, err)
			continue
		}
		tiny, _ := spec.TinyBuild()
		temps := ""
		for i, t := range spec.Temperatures {
			if i > 0 {
				temps += ","
			}
			temps += fmt.Sprintf("%.0f", t)
		}
		fmt.Fprintf(w, "%-6s %-22s %9.0f %18s %18s\n",
			name, temps, spec.TimeStep,
			fmt.Sprintf("%d | %d", spec.PaperSnapshots, opts.Snapshots),
			fmt.Sprintf("%d | %d", spec.PaperAtoms, tiny.NumAtoms()))
	}
}

// Table4 formats the FEKF-vs-Adam accuracy and convergence-ratio study
// (paper Table 4): the epoch ratio of FEKF bs=32 to Adam bs=1 and the
// train/test per-atom RMSE of both (generalization gap).
func Table4(w io.Writer, results []SystemResult) {
	fmt.Fprintln(w, "Table 4: convergence ratio and RMSE of 32-sample FEKF vs single-sample Adam")
	fmt.Fprintf(w, "%-6s %10s %10s   %-23s %-23s\n",
		"System", "Adam ep.", "FEKF/Adam", "Adam E-RMSE train/test", "FEKF E-RMSE train/test")
	for _, r := range results {
		conv := "-"
		if r.FEKF.Converged && r.AdamBS1.Epochs > 0 {
			conv = fmt.Sprintf("%.3f", float64(r.FEKF.Epochs)/float64(r.AdamBS1.Epochs))
		}
		fmt.Fprintf(w, "%-6s %10d %10s   %-23s %-23s\n",
			r.System, r.AdamBS1.Epochs, conv,
			fmt.Sprintf("%.5f / %.5f", r.AdamBS1.TrainE, r.AdamBS1.TestE),
			fmt.Sprintf("%.5f / %.5f", r.FEKF.TrainE, r.FEKF.TestE))
	}
	fmt.Fprintln(w, "\nGeneralization gap (|test-train| per-atom energy RMSE, FEKF bs=32):")
	for _, r := range results {
		gap := r.FEKF.TestE - r.FEKF.TrainE
		if gap < 0 {
			gap = -gap
		}
		fmt.Fprintf(w, "  %-6s %.5f\n", r.System, gap)
	}
}

// Table5Row is one configuration of the distributed Cu study.
type Table5Row struct {
	Label      string
	BatchSize  int
	GPUs       int
	Epochs     int
	Converged  bool
	WallSec    float64
	ModeledSec float64
	WireMB     float64
	TestE      float64
}

// Table5 reproduces the distributed-training study (paper Table 5): the
// Cu system trained by RLEKF bs=1 on 1 GPU versus FEKF with batch size
// scaling across 1, 4 and 16 simulated GPUs.  The paper scales the batch
// from 32 to 4096; at this reproduction's dataset size the same ×4-per-
// stage progression is 32 → 128 → 512.  Speedups are quoted on modeled
// device time (the host has one core; see DESIGN.md).
func Table5(w io.Writer, opts Options) ([]Table5Row, error) {
	full, err := GenerateData("Cu", opts)
	if err != nil {
		return nil, err
	}
	trainSet, testSet := full.Split(opts.TestFrac, opts.Seed)

	// accuracy reference: the paper converges Table 5 runs at a relaxed
	// (1.5x) accuracy; reuse the Adam bs1 plateau protocol.
	mA, err := newModel(trainSet, deepmd.OptFused, opts.Seed)
	if err != nil {
		return nil, err
	}
	target, _, err := train.PlateauTarget(mA, train.OptStepper{M: mA, Opt: optimize.NewAdam()},
		trainSet, train.Config{BatchSize: 1, MaxEpochs: opts.AdamBS1MaxEpochs, EvalSubset: 16, Seed: opts.Seed},
		1.5)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Table 5: Cu distributed training (target per-atom E RMSE %.5f)\n", target)

	var rows []Table5Row

	// RLEKF bs=1 on one GPU
	mR, err := newModel(trainSet, deepmd.OptFused, opts.Seed)
	if err != nil {
		return nil, err
	}
	rsR, err := runOne(mR, train.OptStepper{M: mR, Opt: optimize.NewRLEKF()},
		trainSet, testSet, 1, opts.RLEKFMaxEpochs, target, opts.Seed)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table5Row{
		Label: "RLEKF", BatchSize: 1, GPUs: 1, Epochs: rsR.Epochs, Converged: rsR.Converged,
		WallSec: rsR.WallSec, ModeledSec: rsR.ModeledSec, TestE: rsR.TestE,
	})

	// FEKF at growing batch and GPU count
	for _, cfg := range []struct{ bs, gpus int }{{32, 1}, {128, 4}, {512, 16}} {
		opts.logf("[Table5] FEKF bs=%d gpus=%d...\n", cfg.bs, cfg.gpus)
		m, err := newModel(trainSet, deepmd.OptAll, opts.Seed)
		if err != nil {
			return nil, err
		}
		dp := cluster.NewDataParallelFEKF(cfg.gpus, m)
		dp.FEKF.KCfg = dp.FEKF.KCfg.WithOpt3()
		if cfg.bs >= 512 {
			// the paper's large-batch λ/ν recommendation (Section 3.2)
			lb := optimize.LargeBatchKalmanConfig().WithOpt3()
			dp.FEKF.KCfg = lb
		}
		start := time.Now()
		row := Table5Row{Label: "FEKF", BatchSize: cfg.bs, GPUs: cfg.gpus}
		rng := newRand(opts.Seed)
		itersPerEpoch := trainSet.Len() / cfg.bs
		if itersPerEpoch < 1 {
			itersPerEpoch = 1
		}
		for epoch := 1; epoch <= opts.FEKFMaxEpochs; epoch++ {
			for it := 0; it < itersPerEpoch; it++ {
				// uniform with-replacement sampling keeps the schedule
				// well-defined even when bs exceeds the dataset (the
				// paper's 512-4096 batches at this scale)
				idx := trainSet.SampleBatch(cfg.bs, rng)
				if _, err := dp.Step(trainSet, idx); err != nil {
					return nil, err
				}
			}
			row.Epochs = epoch
			met, err := dp.Model().Evaluate(trainSet.Subset(16), 8)
			if err != nil {
				return nil, err
			}
			if met.EnergyPerAtomRMSE <= target {
				row.Converged = true
				break
			}
		}
		met, err := dp.Model().Evaluate(testSet.Subset(32), 8)
		if err != nil {
			return nil, err
		}
		row.WallSec = time.Since(start).Seconds()
		row.ModeledSec = dp.ModeledIterationNs() / 1e9
		row.WireMB = float64(dp.Ring().WireBytes()) / (1 << 20)
		row.TestE = met.EnergyPerAtomRMSE
		rows = append(rows, row)
	}

	base := rows[0].ModeledSec
	fmt.Fprintf(w, "%-8s %10s %6s %8s %10s %12s %12s %10s\n",
		"Method", "batch(GPU)", "epochs", "conv", "wall(s)", "modeled(s)", "speedup", "wire(MB)")
	for _, r := range rows {
		sp := "-"
		if r.ModeledSec > 0 && base > 0 {
			sp = fmt.Sprintf("%.1fx", base/r.ModeledSec)
		}
		fmt.Fprintf(w, "%-8s %10s %6d %8v %10.1f %12.3f %12s %10.2f\n",
			r.Label, fmt.Sprintf("%d(%d)", r.BatchSize, r.GPUs), r.Epochs, r.Converged,
			r.WallSec, r.ModeledSec, sp, r.WireMB)
	}
	return rows, nil
}

// newRand builds a deterministic RNG for batch sampling.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
