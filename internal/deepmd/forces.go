package deepmd

import (
	"fekf/internal/autodiff"
	"fekf/internal/tensor"
)

// This file holds the two force paths of Section 3.4.
//
// Atomic forces are F_k = −∇_{r_k} E_tot.  E depends on the coordinates
// only through the environment matrices R̃_t, so
//
//	F = −(∂E/∂R̃) · (∂R̃/∂r)
//
// The second factor is the constant geometric table stored in Env.Entries
// (the "prod_force" custom op of real DeePMD implementations, here
// geomContract).  The paths differ in how ∂E/∂R̃ is produced:
//
//   - autogradForces: one generic reverse sweep over the whole graph, the
//     framework-Autograd baseline with its many fragmented kernels.
//   - manualForces (Opt1): dE/dD via a bounded reverse sweep over the
//     fitting net only, then the hand-derived Eq. 4 of the paper as one
//     fused kernel (symOpBwd), then two batched GEMMs and a bounded sweep
//     through the embedding net.
//
// Both paths build ∂E/∂R̃ out of differentiable nodes, so the optimizers
// can take derivatives of the force predictions with respect to the
// weights (double backprop), which force-measurement Kalman updates need.

// autogradForces derives ∂E/∂R̃ by a full generic reverse sweep.
func (m *Model) autogradForces(g *autodiff.Graph, env *Env, energies *autodiff.Var, rVars []*autodiff.Var) *autodiff.Var {
	dER := autodiff.Grad([]*autodiff.Var{energies}, nil, rVars)
	return m.geomContract(g, env, dER)
}

// manualForces derives ∂E/∂R̃ with the hand-written kernels of Opt1.
func (m *Model) manualForces(g *autodiff.Graph, env *Env, energies *autodiff.Var,
	x, xs, d, dFlat *autodiff.Var, rVars, gOut []*autodiff.Var) *autodiff.Var {

	nAtoms := env.NumAtoms()
	cfg := m.Cfg

	// dE/dD through the fitting net only (bounded sweep).
	dEDFlat := autodiff.GradTo([]*autodiff.Var{energies}, nil, []*autodiff.Var{dFlat})[0]
	dED := g.Reshape(dEDFlat, nAtoms*cfg.M, cfg.MSub)

	// Eq. 4, fused: dE/dX = X<·(dE/dD)ᵀ + pad(X·(dE/dD)).
	dEX := m.symOpBwd(g, x, xs, dED, nAtoms)
	// chain through the 1/N_m scaling of X
	dEX = g.Scale(1/float64(cfg.TotalSlots()), dEX)

	dER := make([]*autodiff.Var, cfg.NumSpecies)
	for t := 0; t < cfg.NumSpecies; t++ {
		// direct route: dE/dR̃ = G·(dE/dX)ᵀ per atom block
		direct := g.BMatMulTB(gOut[t], dEX, nAtoms)
		// embedding route: seed dE/dG into a bounded sweep over the
		// embedding net, which lands on the s column of R̃.
		dEG := g.BMatMul(rVars[t], dEX, nAtoms)
		embed := autodiff.GradTo([]*autodiff.Var{gOut[t]}, []*autodiff.Var{dEG}, []*autodiff.Var{rVars[t]})[0]
		dER[t] = g.Add(direct, embed)
	}
	return m.geomContract(g, env, dER)
}

// symOpBwd is the fused hand-derived derivative of the symmetry-preserving
// operation D = XᵀX< (Eq. 4 of the paper), one kernel instead of the 3-4
// the generic backward launches.  Its own backward is expressed with
// batched primitives so it remains doubly differentiable.
func (m *Model) symOpBwd(g *autodiff.Graph, x, xs, dED *autodiff.Var, batch int) *autodiff.Var {
	msub := m.Cfg.MSub
	mm := m.Cfg.M
	// forward, computed in one pass
	term1 := tensor.BatchedMatMulTB(xs.Value, dED.Value, batch) // X<·Ĝᵀ: (B·4)×M
	term2 := tensor.BatchedMatMul(x.Value, dED.Value, batch)    // X·Ĝ:  (B·4)×MSub
	out := term1
	tensor.AccumulateCols(out, 0, term2)
	tensor.Recycle(term2)
	flops := 2 * int64(x.Rows()) * int64(mm) * int64(msub) * 2
	return g.Custom("sym_op_bwd", out, flops, []*autodiff.Var{x, xs, dED},
		func(h *autodiff.Var) []*autodiff.Var {
			hSub := g.SliceCols(h, 0, msub)
			dX := g.BMatMulTB(hSub, dED, batch)
			dXs := g.BMatMul(h, dED, batch)
			dG := g.Add(g.BMatMulTA(h, xs, batch), g.BMatMulTA(x, hSub, batch))
			return []*autodiff.Var{dX, dXs, dG}
		})
}

// contractFwdType applies the geometric chain rule for one neighbor
// species: given ∂E/∂R̃_t (rows×4), accumulate −∂E/∂r into out (3N×1).
func contractFwdType(env *Env, t int, in *tensor.Dense, norm float64, out *tensor.Dense) {
	inv := 1 / norm
	for _, e := range env.Entries[t] {
		row := in.Data[e.Row*4 : e.Row*4+4]
		for dim := 0; dim < 3; dim++ {
			dEdd := inv * (row[0]*e.A[0][dim] + row[1]*e.A[1][dim] +
				row[2]*e.A[2][dim] + row[3]*e.A[3][dim])
			out.Data[3*e.I+dim] += dEdd
			out.Data[3*e.J+dim] -= dEdd
		}
	}
}

// contractBwdType is the adjoint of contractFwdType: given a gradient h
// over the force vector, produce the gradient over ∂E/∂R̃_t.
func contractBwdType(env *Env, t int, h *tensor.Dense, norm float64, rows int) *tensor.Dense {
	out := tensor.New(rows, 4)
	inv := 1 / norm
	for _, e := range env.Entries[t] {
		dst := out.Data[e.Row*4 : e.Row*4+4]
		for dim := 0; dim < 3; dim++ {
			hv := inv * (h.Data[3*e.I+dim] - h.Data[3*e.J+dim])
			dst[0] += e.A[0][dim] * hv
			dst[1] += e.A[1][dim] * hv
			dst[2] += e.A[2][dim] * hv
			dst[3] += e.A[3][dim] * hv
		}
	}
	return out
}

// geomContract is the prod_force custom op: it maps the per-type ∂E/∂R̃
// nodes to the (3·B·Na)×1 force prediction.  The op is linear; forward and
// adjoint reference each other in their backward closures, so the pair is
// differentiable to any order.
func (m *Model) geomContract(g *autodiff.Graph, env *Env, dER []*autodiff.Var) *autodiff.Var {
	n := env.NumAtoms()
	out := tensor.New(3*n, 1)
	var flops int64
	for t, v := range dER {
		contractFwdType(env, t, v.Value, m.SNorm[t], out)
		flops += int64(len(env.Entries[t])) * 24
	}
	return g.Custom("prod_force", out, flops, dER, func(h *autodiff.Var) []*autodiff.Var {
		res := make([]*autodiff.Var, len(dER))
		for t := range dER {
			res[t] = m.geomContractT(g, env, t, dER[t].Rows(), h)
		}
		return res
	})
}

// geomContractT is the adjoint op of geomContract for one neighbor type.
func (m *Model) geomContractT(g *autodiff.Graph, env *Env, t, rows int, h *autodiff.Var) *autodiff.Var {
	out := contractBwdType(env, t, h.Value, m.SNorm[t], rows)
	flops := int64(len(env.Entries[t])) * 24
	return g.Custom("prod_force_grad", out, flops, []*autodiff.Var{h},
		func(k *autodiff.Var) []*autodiff.Var {
			n := env.NumAtoms()
			fw := tensor.New(3*n, 1)
			contractFwdType(env, t, k.Value, m.SNorm[t], fw)
			node := g.Custom("prod_force", fw, flops, []*autodiff.Var{k},
				func(h2 *autodiff.Var) []*autodiff.Var {
					return []*autodiff.Var{m.geomContractT(g, env, t, rows, h2)}
				})
			return []*autodiff.Var{node}
		})
}
