package deepmd

import (
	"fmt"
	"testing"

	"fekf/internal/dataset"
	"fekf/internal/device"
)

// benchSetup returns four tiny-Cu frames and a fully optimized tiny model,
// the shapes the online trainer steps on.
func benchSetup(b *testing.B) (*dataset.Dataset, *Model) {
	b.Helper()
	ds, err := dataset.Generate("Cu", dataset.GenOptions{
		Snapshots: 4, SampleEvery: 4, EquilSteps: 25, Tiny: true, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewModel(TinyConfig(SnapshotSystem(ds, &ds.Snapshots[0])))
	if err != nil {
		b.Fatal(err)
	}
	m.Level = OptAll
	m.Dev = device.New("bench", device.A100())
	if err := m.InitFromDataset(ds); err != nil {
		b.Fatal(err)
	}
	return ds, m
}

var benchBatches = [][]int{{0}, {0, 1, 2, 3}}

// BenchmarkBuildEnv times the environment build of a batch: neighbor
// lists, slot assignment and the R̃ matrices with their derivative tables.
func BenchmarkBuildEnv(b *testing.B) {
	ds, m := benchSetup(b)
	for _, idx := range benchBatches {
		b.Run(fmt.Sprintf("batch%d", len(idx)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildBatchEnv(m.Cfg, ds, idx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkForwardForceGrad times the autodiff layer of one force
// measurement: the forward with the force graph, one double-backprop
// ForceGrad, and the graph's Release.
func BenchmarkForwardForceGrad(b *testing.B) {
	ds, m := benchSetup(b)
	for _, idx := range benchBatches {
		b.Run(fmt.Sprintf("batch%d", len(idx)), func(b *testing.B) {
			env, err := BuildBatchEnv(m.Cfg, ds, idx)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := m.Forward(env, true)
				_ = m.ForceGrad(out, nil)
				out.Graph.Release()
			}
		})
	}
}
