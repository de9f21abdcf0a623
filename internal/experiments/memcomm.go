package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"fekf/internal/cluster"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/md"
	"fekf/internal/optimize"
)

// MemoryRow summarizes one P-update variant of the Section 5.3 memory
// experiment.
type MemoryRow struct {
	Variant   string
	PBytes    int64
	PeakBytes int64
}

// Memory reproduces the Section 5.3 memory study at the paper's network
// size: the block-diagonal P of the 26.5k-parameter Cu model
// (blocksize 10240 → blocks {1350², 10240², 9810², 5151²}) is updated once
// with the framework-style kernels (which materialize KKᵀ and the
// transpose) and once with the handwritten fused kernel; the device
// allocator's peak tells the story.
func Memory(w io.Writer, opts Options) ([]MemoryRow, error) {
	spec, err := md.GetSystem("Cu")
	if err != nil {
		return nil, err
	}
	sys, _ := spec.Build(1)
	cfg := deepmd.PaperConfig(spec, sys)
	m, err := deepmd.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	layers := m.Params.LayerSizes()

	fmt.Fprintln(w, "Section 5.3 memory experiment: P-update peak device memory (Cu, 26.5k params)")
	blocks := optimize.SplitBlocks(layers, 10240)
	fmt.Fprintf(w, "P blocks: %v\n", optimize.BlockSizes(blocks))

	rng := rand.New(rand.NewSource(opts.Seed))
	g := make([]float64, m.Params.NumParams())
	for i := range g {
		g[i] = rng.NormFloat64()
	}

	var rows []MemoryRow
	for _, variant := range []struct {
		name string
		cfg  optimize.KalmanConfig
	}{
		{"framework (torch-style)", optimize.DefaultKalmanConfig()},
		{"custom fused kernel", optimize.DefaultKalmanConfig().WithOpt3()},
	} {
		dev := device.New("mem", device.A100())
		ks := optimize.NewKalmanState(variant.cfg, layers, dev)
		dev.ResetPeak()
		ks.Update(g, 0.1, 1)
		c := dev.Counters()
		rows = append(rows, MemoryRow{Variant: variant.name, PBytes: ks.PBytes(), PeakBytes: c.PeakBytes})
		ks.Free()
	}
	fmt.Fprintf(w, "%-26s %14s %14s\n", "variant", "P memory (MB)", "peak (MB)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %14.0f %14.0f\n", r.Variant,
			float64(r.PBytes)/(1<<20), float64(r.PeakBytes)/(1<<20))
	}
	if len(rows) == 2 {
		fmt.Fprintf(w, "peak reduction: %.0f MB -> %.0f MB (theory: 2x max block = %.0f MB extra)\n",
			float64(rows[0].PeakBytes)/(1<<20), float64(rows[1].PeakBytes)/(1<<20),
			2*float64(10240*10240*8)/(1<<20))
	}
	return rows, nil
}

// Comm reproduces the Section 5.3/3.3 communication analysis: the
// measured per-iteration wire volume of distributed FEKF (gradients + ABE
// scalars only) against the volume the fusiform Naive-EKF would need to
// ship its P blocks, for growing GPU counts.
func Comm(w io.Writer, opts Options) error {
	full, err := GenerateData("Cu", opts)
	if err != nil {
		return err
	}
	trainSet, _ := full.Split(opts.TestFrac, opts.Seed)
	m, err := newModel(trainSet, deepmd.OptAll, opts.Seed)
	if err != nil {
		return err
	}
	n := int64(m.Params.NumParams())
	blocks := optimize.SplitBlocks(m.Params.LayerSizes(), optimize.DefaultKalmanConfig().BlockSize)
	var pBytes int64
	for _, b := range blocks {
		pBytes += int64(b.Size()) * int64(b.Size()) * 8
	}

	fmt.Fprintln(w, "Section 3.3/5.3 communication analysis (Cu, per training iteration)")
	fmt.Fprintf(w, "parameters N = %d, gradient memory = %.3f MB, P memory = %.1f MB\n",
		n, float64(n*8)/(1<<20), float64(pBytes)/(1<<20))
	fmt.Fprintf(w, "%-6s %18s %22s %14s\n", "#GPUs", "FEKF wire (MB)", "Naive-EKF P wire (MB)", "modeled comm")
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, gpus := range []int{2, 4, 8} {
		dp := cluster.NewDataParallelFEKF(gpus, m)
		dp.FEKF.KCfg = dp.FEKF.KCfg.WithOpt3()
		if _, err := dp.Step(trainSet, idx); err != nil {
			return err
		}
		measured := float64(dp.Ring().WireBytes()) / (1 << 20)
		// Naive-EKF would additionally ring-allreduce every P block:
		// each rank ships 2(r-1)/r of the P bytes.
		naive := float64(gpus) * 2 * float64(gpus-1) / float64(gpus) * float64(pBytes) / (1 << 20)
		fmt.Fprintf(w, "%-6d %18.3f %22.1f %11.2fms\n",
			gpus, measured, measured+naive, dp.Ring().ModeledNs()/1e6)
	}
	fmt.Fprintln(w, "(FEKF ships only reduced gradients + 2 scalars per update; P stays replica-consistent)")
	return nil
}
