package deepmd

import (
	"fmt"
	"math"
	"math/rand"

	"fekf/internal/autodiff"
	"fekf/internal/dataset"
	"fekf/internal/device"
	"fekf/internal/nn"
	"fekf/internal/tensor"
)

// Model is a Deep Potential network: per-neighbor-species embedding nets
// (E0 + two residual layers), the symmetry-preserving descriptor, and a
// per-center-species fitting net (F0 + two residual layers + linear F3).
type Model struct {
	Cfg    Config
	Params *nn.ParamSet
	Level  OptLevel
	Dev    *device.Device

	// SNorm scales the environment matrix per neighbor species so the
	// descriptor is O(1); it plays the role of DeePMD-kit's dstd.
	SNorm []float64

	embed [][3]nn.Dense // per neighbor type
	fit   [][4]nn.Dense // per center type
}

// NewModel builds a model with Xavier-initialized weights.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{
		Cfg:    cfg,
		Params: &nn.ParamSet{},
		Dev:    device.Default,
		SNorm:  make([]float64, cfg.NumSpecies),
	}
	for t := range m.SNorm {
		m.SNorm[t] = 1
	}
	for t := 0; t < cfg.NumSpecies; t++ {
		m.embed = append(m.embed, [3]nn.Dense{
			nn.NewDense(m.Params, fmt.Sprintf("embed%d/0", t), 1, cfg.M, rng),
			nn.NewDense(m.Params, fmt.Sprintf("embed%d/1", t), cfg.M, cfg.M, rng),
			nn.NewDense(m.Params, fmt.Sprintf("embed%d/2", t), cfg.M, cfg.M, rng),
		})
	}
	in := cfg.M * cfg.MSub
	for c := 0; c < cfg.NumSpecies; c++ {
		layers := [4]nn.Dense{
			nn.NewDense(m.Params, fmt.Sprintf("fit%d/0", c), in, cfg.FitHidden, rng),
			nn.NewDense(m.Params, fmt.Sprintf("fit%d/1", c), cfg.FitHidden, cfg.FitHidden, rng),
			nn.NewDense(m.Params, fmt.Sprintf("fit%d/2", c), cfg.FitHidden, cfg.FitHidden, rng),
			nn.NewDense(m.Params, fmt.Sprintf("fit%d/3", c), cfg.FitHidden, 1, rng),
		}
		// shrink the energy head so initial predictions sit near the bias
		for i := range layers[3].W.Data {
			layers[3].W.Data[i] *= 0.1
		}
		m.fit = append(m.fit, layers)
	}
	return m, nil
}

// NumParams returns the number of trainable parameters.
func (m *Model) NumParams() int { return m.Params.NumParams() }

// CloneFor returns a replica of the model (weights, normalization,
// optimization level) bound to another device — one rank of a
// data-parallel trainer.
func (m *Model) CloneFor(dev *device.Device) *Model {
	c, err := NewModel(m.Cfg)
	if err != nil {
		panic(err) // m.Cfg was already validated
	}
	c.Params.CopyFrom(m.Params)
	copy(c.SNorm, m.SNorm)
	c.Level = m.Level
	c.Dev = dev
	return c
}

// Clone returns a deep copy of the model on the same device — the
// copy-on-write snapshot the online trainer publishes so concurrent
// prediction readers never observe a mid-update weight set.
func (m *Model) Clone() *Model { return m.CloneFor(m.Dev) }

// InitFromDataset sets the environment normalization (the s(r) RMS per
// neighbor species) and the per-atom energy bias from training data, the
// equivalent of DeePMD-kit's data statistics pass.
func (m *Model) InitFromDataset(ds *dataset.Dataset) error {
	n := ds.Len()
	if n == 0 {
		return fmt.Errorf("deepmd: InitFromDataset with empty dataset")
	}
	if n > 8 {
		n = 8
	}
	sum := make([]float64, m.Cfg.NumSpecies)
	cnt := make([]float64, m.Cfg.NumSpecies)
	for k := 0; k < n; k++ {
		env, err := BuildBatchEnv(m.Cfg, ds, []int{k})
		if err != nil {
			return err
		}
		for t, r := range env.R {
			for _, e := range env.Entries[t] {
				s := r.At(e.Row, 0)
				sum[t] += s * s
				cnt[t]++
			}
		}
	}
	for t := range sum {
		if cnt[t] > 0 && sum[t] > 0 {
			m.SNorm[t] = math.Sqrt(sum[t] / cnt[t])
		}
	}
	// energy bias: mean per-atom label energy into every fitting net's
	// final bias, so training starts near the right absolute energy.
	mean, _ := ds.EnergyStats()
	for c := range m.fit {
		m.fit[c][3].B.Fill(mean)
	}
	return nil
}

// boundParams is the per-graph binding of the model parameters.
type boundParams struct {
	all   []*autodiff.Var // aligned with Params registration order
	embed [][3][2]*autodiff.Var
	fit   [][4][2]*autodiff.Var
}

func (m *Model) bind(g *autodiff.Graph) *boundParams {
	bp := &boundParams{}
	for t := range m.embed {
		var lv [3][2]*autodiff.Var
		for l := 0; l < 3; l++ {
			lv[l][0] = g.Param(m.embed[t][l].W)
			lv[l][1] = g.Param(m.embed[t][l].B)
			bp.all = append(bp.all, lv[l][0], lv[l][1])
		}
		bp.embed = append(bp.embed, lv)
	}
	for c := range m.fit {
		var lv [4][2]*autodiff.Var
		for l := 0; l < 4; l++ {
			lv[l][0] = g.Param(m.fit[c][l].W)
			lv[l][1] = g.Param(m.fit[c][l].B)
			bp.all = append(bp.all, lv[l][0], lv[l][1])
		}
		bp.fit = append(bp.fit, lv)
	}
	return bp
}

// Output is the result of one forward (and optionally force) pass.
type Output struct {
	Graph *autodiff.Graph
	// Energies is the per-image total energy, B×1.
	Energies *autodiff.Var
	// Forces is the stacked per-atom force prediction, (3·B·Na)×1,
	// image-major then atom-major then x,y,z; nil unless requested.
	Forces *autodiff.Var
	// ParamVars are the bound parameter nodes aligned with
	// Model.Params registration order (the Grad targets).
	ParamVars []*autodiff.Var

	env *Env
	bp  *boundParams
}

// Forward runs the model on a batch environment.  withForces selects
// whether the force prediction graph is built (via the autograd or manual
// path according to the model's optimization level).
func (m *Model) Forward(env *Env, withForces bool) *Output {
	g := autodiff.NewGraph(m.Dev)
	g.Fused = m.Level >= OptFused
	bp := m.bind(g)
	cfg := m.Cfg
	nAtoms := env.NumAtoms()

	prev := m.Dev.SetPhase(device.PhaseForward)
	defer m.Dev.SetPhase(prev)

	// embedding per neighbor species
	rVars := make([]*autodiff.Var, cfg.NumSpecies)
	gOut := make([]*autodiff.Var, cfg.NumSpecies)
	var x *autodiff.Var
	for t := 0; t < cfg.NumSpecies; t++ {
		rt := g.Leaf(scaleEnv(g, env.R[t], m.SNorm[t]), true)
		rVars[t] = rt
		s := g.SliceCols(rt, 0, 1)
		h := g.AffineTanh(s, bp.embed[t][0][0], bp.embed[t][0][1])
		h = g.ResidualAffineTanh(h, bp.embed[t][1][0], bp.embed[t][1][1])
		h = g.ResidualAffineTanh(h, bp.embed[t][2][0], bp.embed[t][2][1])
		gOut[t] = h
		// Per atom: R̃ᵀG, stacked to (B·Na·4)×M.  The baseline level
		// mirrors the framework's fragmented dispatch with one small
		// kernel per atom; the optimized levels use one batched kernel
		// (the cuBLAS-batched-GEMM of real implementations).
		var xt *autodiff.Var
		if m.Level == OptBaseline {
			xt = m.perImageMatMulTA(g, rt, h, env, cfg.MaxNeighbors[t])
		} else {
			xt = g.BMatMulTA(rt, h, nAtoms)
		}
		if x == nil {
			x = xt
		} else {
			x = g.Add(x, xt)
		}
	}
	x = g.Scale(1/float64(cfg.TotalSlots()), x)
	xs := g.SliceCols(x, 0, cfg.MSub)
	d := g.BMatMulTA(x, xs, nAtoms) // per atom: D = XᵀX<, (B·Na·M)×MSub
	dFlat := g.Reshape(d, nAtoms, cfg.M*cfg.MSub)

	// fitting per center species
	var eAtoms *autodiff.Var
	for c := 0; c < cfg.NumSpecies; c++ {
		rows := env.TypeRows[c]
		if len(rows) == 0 {
			continue
		}
		dc := g.GatherRows(dFlat, rows)
		h := g.AffineTanh(dc, bp.fit[c][0][0], bp.fit[c][0][1])
		h = g.ResidualAffineTanh(h, bp.fit[c][1][0], bp.fit[c][1][1])
		h = g.ResidualAffineTanh(h, bp.fit[c][2][0], bp.fit[c][2][1])
		ec := g.Affine(h, bp.fit[c][3][0], bp.fit[c][3][1])
		sc := g.ScatterRows(ec, rows, nAtoms)
		if eAtoms == nil {
			eAtoms = sc
		} else {
			eAtoms = g.Add(eAtoms, sc)
		}
	}
	energies := g.BlockSum(eAtoms, env.NaPer)

	out := &Output{
		Graph:     g,
		Energies:  energies,
		ParamVars: bp.all,
		env:       env,
		bp:        bp,
	}
	if withForces {
		prevP := m.Dev.SetPhase(device.PhaseForward)
		if m.Level >= OptManualForce {
			out.Forces = m.manualForces(g, env, energies, x, xs, d, dFlat, rVars, gOut)
		} else {
			out.Forces = m.autogradForces(g, env, energies, rVars)
		}
		m.Dev.SetPhase(prevP)
	}
	return out
}

// perImageMatMulTA computes the same per-atom block products as BMatMulTA
// but dispatches one slice + one batched GEMM per *image*, reproducing the
// framework baseline's kernel fragmentation (Section 3.4's motivation:
// "a lot of fragmented kernels being launched by using Autograd API" —
// frameworks batch within a frame but re-dispatch the descriptor chain per
// frame, and every extra forward op multiplies through the backward and
// double-backward force passes).
func (m *Model) perImageMatMulTA(g *autodiff.Graph, a, b *autodiff.Var, env *Env, slotsPer int) *autodiff.Var {
	rowsPer := env.NaPer * slotsPer
	parts := make([]*autodiff.Var, env.B)
	for i := 0; i < env.B; i++ {
		ra := g.SliceRows(a, i*rowsPer, (i+1)*rowsPer)
		rb := g.SliceRows(b, i*rowsPer, (i+1)*rowsPer)
		parts[i] = g.BMatMulTA(ra, rb, env.NaPer)
	}
	return g.ConcatRows(parts...)
}

// scaleEnv returns env matrix r divided by the normalization norm, as a
// copy g owns and recycles at Release (the raw env is preserved for reuse
// across models).
func scaleEnv(g *autodiff.Graph, r *tensor.Dense, norm float64) *tensor.Dense {
	if norm == 1 {
		return r
	}
	return g.Adopt(tensor.Scale(1/norm, r))
}

// EnergyGrad returns d(Σ_b seed_b·E_b)/dparams as a flat vector; seed nil
// means all ones.  Used by the optimizers' energy updates.
func (m *Model) EnergyGrad(out *Output, seed *tensor.Dense) []float64 {
	prev := m.Dev.SetPhase(device.PhaseGradient)
	defer m.Dev.SetPhase(prev)
	var seeds []*tensor.Dense
	if seed != nil {
		seeds = []*tensor.Dense{seed}
	}
	grads := autodiff.Grad([]*autodiff.Var{out.Energies}, seeds, out.ParamVars)
	return m.flatten(grads)
}

// ForceGrad returns d(Σ seedᵢ·Fᵢ)/dparams as a flat vector; out must have
// been built with forces.
func (m *Model) ForceGrad(out *Output, seed *tensor.Dense) []float64 {
	if out.Forces == nil {
		panic("deepmd: ForceGrad without force graph")
	}
	prev := m.Dev.SetPhase(device.PhaseGradient)
	defer m.Dev.SetPhase(prev)
	var seeds []*tensor.Dense
	if seed != nil {
		seeds = []*tensor.Dense{seed}
	}
	grads := autodiff.Grad([]*autodiff.Var{out.Forces}, seeds, out.ParamVars)
	return m.flatten(grads)
}

// LossGrad returns d(loss)/dparams as a flat vector, where loss is a
// scalar node of out's graph (e.g. from LossGraph).  Used by Adam.
func (m *Model) LossGrad(out *Output, loss *autodiff.Var) []float64 {
	prev := m.Dev.SetPhase(device.PhaseGradient)
	defer m.Dev.SetPhase(prev)
	grads := autodiff.GradScalar(loss, out.ParamVars)
	return m.flatten(grads)
}

func (m *Model) flatten(grads []*autodiff.Var) []float64 {
	ts := make([]*tensor.Dense, len(grads))
	for i, gv := range grads {
		ts[i] = gv.Value
	}
	return m.Params.FlattenAligned(ts)
}
