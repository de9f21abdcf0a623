package deepmd

import (
	"math"

	"fekf/internal/autodiff"
	"fekf/internal/dataset"
	"fekf/internal/tensor"
)

// Labels packs the reference values of one minibatch.
type Labels struct {
	Energy *tensor.Dense // B×1 total energies
	Force  *tensor.Dense // (3·B·Na)×1 stacked forces
	NaPer  int
}

// BatchLabels extracts the labels of the selected snapshots.
func BatchLabels(ds *dataset.Dataset, idx []int) *Labels {
	b := len(idx)
	na := ds.Snapshots[idx[0]].NumAtoms()
	e := tensor.New(b, 1)
	f := tensor.New(3*b*na, 1)
	for k, i := range idx {
		snap := &ds.Snapshots[i]
		e.Data[k] = snap.Energy
		copy(f.Data[3*k*na:3*(k+1)*na], snap.Forces)
	}
	return &Labels{Energy: e, Force: f, NaPer: na}
}

// LossWeights are the energy/force loss prefactors of the DeePMD loss
//
//	L = pe·⟨(ΔE/Na)²⟩ + pf·⟨|ΔF|²⟩/3Na
type LossWeights struct {
	Energy float64
	Force  float64
}

// DefaultLossWeights balances the two terms near convergence: per-atom
// energy residuals are roughly an order of magnitude below force-component
// residuals for these systems, so the energy term carries the extra weight
// (DeePMD-kit reaches a similar balance through its pref_e/pref_f
// schedule).
func DefaultLossWeights() LossWeights { return LossWeights{Energy: 100, Force: 1} }

// LossGraph builds the scalar training loss node for an output with
// forces; it is the objective the Adam baseline minimizes.
func LossGraph(out *Output, lab *Labels, w LossWeights) *autodiff.Var {
	g := out.Graph
	b := float64(out.Energies.Rows())
	na := float64(lab.NaPer)

	de := g.Sub(out.Energies, g.Const(lab.Energy))
	lossE := g.Scale(w.Energy/(b*na*na), g.Sum(g.Square(de)))

	df := g.Sub(out.Forces, g.Const(lab.Force))
	lossF := g.Scale(w.Force/(b*3*na), g.Sum(g.Square(df)))
	return g.Add(lossE, lossF)
}

// Metrics summarizes prediction error on a batch.
type Metrics struct {
	EnergyRMSE        float64 // RMSE of total energy per image, eV
	EnergyPerAtomRMSE float64 // RMSE of E/Na, eV/atom
	ForceRMSE         float64 // RMSE of force components, eV/Å
}

// Evaluate runs the model over a whole dataset in chunks and returns
// aggregate metrics; used for train/test RMSE reporting (Table 4).
func (m *Model) Evaluate(ds *dataset.Dataset, chunk int) (Metrics, error) {
	if chunk < 1 {
		chunk = 8
	}
	var sumE, sumEA, sumF float64
	var nImg, nF int
	for lo := 0; lo < ds.Len(); lo += chunk {
		hi := lo + chunk
		if hi > ds.Len() {
			hi = ds.Len()
		}
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		env, err := BuildBatchEnv(m.Cfg, ds, idx)
		if err != nil {
			return Metrics{}, err
		}
		out := m.Forward(env, true)
		lab := BatchLabels(ds, idx)
		for i := 0; i < len(idx); i++ {
			d := out.Energies.Value.Data[i] - lab.Energy.Data[i]
			sumE += d * d
			sumEA += d * d / (float64(lab.NaPer) * float64(lab.NaPer))
		}
		for i := 0; i < out.Forces.Value.Len(); i++ {
			d := out.Forces.Value.Data[i] - lab.Force.Data[i]
			sumF += d * d
		}
		nImg += len(idx)
		nF += out.Forces.Value.Len()
		out.Graph.Release()
	}
	return Metrics{
		EnergyRMSE:        math.Sqrt(sumE / float64(nImg)),
		EnergyPerAtomRMSE: math.Sqrt(sumEA / float64(nImg)),
		ForceRMSE:         math.Sqrt(sumF / float64(nF)),
	}, nil
}
