// Package autodiff implements a reverse-mode automatic differentiation
// engine over the tensor package, playing the role PyTorch autograd plays
// in the paper.
//
// Ops execute eagerly on a Graph.  Every primitive reports one kernel
// launch (with flop and byte estimates) to the graph's simulated device, so
// the kernel-launch counts of Figure 7(b) and the phase timings of
// Figure 7(c) fall out of the op stream.  Crucially, backward passes are
// themselves built from primitives (the create_graph=True style), so
// gradients are Vars that can be differentiated again — this is what lets
// the reproduction train on forces, which are first derivatives of the
// network output, with a quasi-Newton optimizer that needs derivatives of
// those forces with respect to the weights.
//
// # Ownership
//
// Leaves (Param, Const, Leaf) alias tensors the caller owns.  Every op
// output — forward values, adjoints, the seeds and zero gradients Grad
// creates — is owned by the graph, and Release hands those buffers back
// to tensor.New for the next graph to reuse.  So no value of a graph may
// be read after its Release: copy out what outlives it first.  A Reshape
// is a view of its input's buffer and is never recycled on its own.
package autodiff

import (
	"fmt"

	"fekf/internal/device"
	"fekf/internal/tensor"
)

// Graph owns a stream of eagerly-executed ops and their values.
type Graph struct {
	// Dev receives one Launch per primitive kernel; may be nil.
	Dev *device.Device
	// Fused selects the kernel-fused op implementations (the paper's
	// Opt2): compositions like tanh(X·W+b) execute as one kernel.
	Fused bool

	nodes     []*Var
	liveBytes int64
	// owned lists the buffers Release recycles: op outputs and adopted
	// tensors, never a leaf's or a view's.
	owned []*tensor.Dense
}

// NewGraph returns an empty graph executing on dev (which may be nil for
// pure-math use).
func NewGraph(dev *device.Device) *Graph { return &Graph{Dev: dev} }

// Var is one node of the graph: a value plus the recipe to push gradients
// to its inputs.
type Var struct {
	g        *Graph
	Value    *tensor.Dense
	requires bool
	inputs   []*Var
	// back maps the adjoint of this node to adjoint contributions for
	// each input (nil entries mean "no gradient flows there").  The
	// contributions are built from graph ops so they are differentiable.
	back func(grad *Var) []*Var
	name string
}

// Rows returns the row count of the node's value.
func (v *Var) Rows() int { return v.Value.Rows }

// Cols returns the column count of the node's value.
func (v *Var) Cols() int { return v.Value.Cols }

// Scalar returns the single element of a 1×1 node.
func (v *Var) Scalar() float64 {
	if v.Value.Len() != 1 {
		panic(fmt.Sprintf("autodiff: Scalar on %dx%d node %q", v.Rows(), v.Cols(), v.name))
	}
	return v.Value.Data[0]
}

// Const registers v as a constant leaf (no gradient).
func (g *Graph) Const(val *tensor.Dense) *Var {
	return g.leaf(val, false, "const")
}

// Param registers v as a trainable leaf (gradient required).  The tensor is
// aliased, not copied, so optimizer updates through the original tensor are
// visible to subsequent graphs.
func (g *Graph) Param(val *tensor.Dense) *Var {
	return g.leaf(val, true, "param")
}

// Leaf registers an input leaf; requiresGrad=true is used for quantities
// like the environment matrix whose gradient yields atomic forces.
func (g *Graph) Leaf(val *tensor.Dense, requiresGrad bool) *Var {
	return g.leaf(val, requiresGrad, "leaf")
}

func (g *Graph) leaf(val *tensor.Dense, req bool, name string) *Var {
	v := &Var{g: g, Value: val, requires: req, name: name}
	g.nodes = append(g.nodes, v)
	return v
}

// op registers an eagerly computed primitive.  flops and bytes describe the
// kernel that produced out; inputs/back wire the reverse pass.
func (g *Graph) op(name string, out *tensor.Dense, flops int64, inputs []*Var, back func(grad *Var) []*Var) *Var {
	req := false
	for _, in := range inputs {
		if in.requires {
			req = true
			break
		}
	}
	if g.Dev != nil {
		bytes := int64(out.Len())
		for _, in := range inputs {
			bytes += int64(in.Value.Len())
		}
		g.Dev.Launch(name, flops, bytes*8)
		g.Dev.Alloc(int64(out.Len()) * 8)
	}
	g.liveBytes += int64(out.Len()) * 8
	if !aliasesAny(out, inputs) {
		g.owned = append(g.owned, out)
	}
	v := &Var{g: g, Value: out, requires: req, inputs: inputs, name: name}
	if req {
		v.back = back
	}
	g.nodes = append(g.nodes, v)
	return v
}

// aliasesAny reports whether out shares its first element with one of
// the inputs' buffers — an op that passes an input through.
func aliasesAny(out *tensor.Dense, inputs []*Var) bool {
	if len(out.Data) == 0 {
		return false
	}
	for _, in := range inputs {
		if len(in.Value.Data) > 0 && &in.Value.Data[0] == &out.Data[0] {
			return true
		}
	}
	return false
}

// Adopt makes val's buffer the graph's own, so Release recycles it with
// the op outputs, and returns val.  Use it for a tensor allocated for this
// graph alone, such as a scaled copy of an input registered as a leaf.
// Adopting costs no simulated device memory.
func (g *Graph) Adopt(val *tensor.Dense) *tensor.Dense {
	g.owned = append(g.owned, val)
	return val
}

// Release ends the graph: it frees all op outputs from the simulated
// device allocator and recycles every buffer the graph owns into
// tensor.New.  No value of the graph — an op output's Value, a gradient
// from Grad, a Reshape of either — may be read or written after Release;
// callers copy out what they need first.  Leaf tensors (parameters,
// inputs, seeds passed to Grad) are owned by the caller and are neither
// freed nor recycled.
func (g *Graph) Release() {
	if g.Dev != nil {
		g.Dev.Free(g.liveBytes)
	}
	for _, t := range g.owned {
		tensor.Recycle(t)
	}
	g.liveBytes = 0
	g.nodes = nil
	g.owned = nil
}

// Custom registers an externally computed primitive op: out is its eagerly
// computed value — a buffer the op allocated, which Release recycles, or
// one of the inputs' own values passed through — flops its kernel cost,
// and back its reverse rule (which must itself be built from graph ops if
// the op is to support double differentiation).  This is the extension point model code uses for
// domain kernels such as the environment-matrix force contraction.
func (g *Graph) Custom(name string, out *tensor.Dense, flops int64, inputs []*Var, back func(grad *Var) []*Var) *Var {
	return g.op(name, out, flops, inputs, back)
}

// Grad computes d(Σᵢ seedsᵢ·outputsᵢ)/d(wrtⱼ) for every j, via reverse-mode
// accumulation.  seeds[i] may be nil to mean all-ones.  The returned Vars
// are graph nodes built from primitives, so they can be differentiated
// again (double backprop).  Nodes unreachable from the outputs get a zero
// gradient of the appropriate shape.
func Grad(outputs []*Var, seeds []*tensor.Dense, wrt []*Var) []*Var {
	var seedVars []*Var
	if seeds != nil {
		if len(seeds) != len(outputs) {
			panic("autodiff: Grad seeds/outputs length mismatch")
		}
		g := outputs[0].g
		seedVars = make([]*Var, len(seeds))
		for i, s := range seeds {
			if s != nil {
				seedVars[i] = g.Const(s)
			}
		}
	}
	return GradSeeded(outputs, seedVars, wrt)
}

// GradSeeded is Grad with graph-node seeds: the adjoint of outputs[i] is
// initialized to seeds[i] (all-ones if nil).  Because a seed may itself be
// a differentiable node, this enables vector-Jacobian products that remain
// differentiable with respect to the seed — the mechanism behind the
// model's hand-written force path.
func GradSeeded(outputs []*Var, seeds []*Var, wrt []*Var) []*Var {
	return gradCore(outputs, seeds, wrt, false)
}

// GradTo is GradSeeded with the wrt nodes treated as boundaries: the
// reverse sweep stops at them, so no backward kernels are executed for
// their ancestors.  All wrt nodes must be mutually independent (none may
// be an ancestor of another), otherwise the boundary cut would drop
// gradient paths.  This is how the hand-written force path extracts
// dE/dD without re-deriving the whole embedding subgraph.
func GradTo(outputs []*Var, seeds []*Var, wrt []*Var) []*Var {
	return gradCore(outputs, seeds, wrt, true)
}

func gradCore(outputs []*Var, seeds []*Var, wrt []*Var, stopAtWrt bool) []*Var {
	if len(outputs) == 0 {
		panic("autodiff: Grad with no outputs")
	}
	if seeds != nil && len(seeds) != len(outputs) {
		panic("autodiff: Grad seeds/outputs length mismatch")
	}
	g := outputs[0].g

	var boundary map[*Var]bool
	if stopAtWrt {
		boundary = make(map[*Var]bool, len(wrt))
		for _, w := range wrt {
			boundary[w] = true
		}
	}

	// Topological order of the differentiable subgraph below the outputs.
	var order []*Var
	seen := make(map[*Var]bool)
	var visit func(v *Var)
	visit = func(v *Var) {
		if seen[v] || !v.requires {
			return
		}
		seen[v] = true
		if !boundary[v] {
			for _, in := range v.inputs {
				visit(in)
			}
		}
		order = append(order, v)
	}
	for _, o := range outputs {
		visit(o)
	}

	adj := make(map[*Var]*Var)
	accumulate := func(node *Var, contrib *Var) {
		if prev, ok := adj[node]; ok {
			adj[node] = g.Add(prev, contrib)
		} else {
			adj[node] = contrib
		}
	}
	for i, o := range outputs {
		if !o.requires {
			continue
		}
		var seed *Var
		if seeds == nil || seeds[i] == nil {
			ones := g.Adopt(tensor.New(o.Rows(), o.Cols()))
			ones.Fill(1)
			seed = g.Const(ones)
		} else {
			seed = seeds[i]
			if seed.Rows() != o.Rows() || seed.Cols() != o.Cols() {
				panic("autodiff: Grad seed shape mismatch")
			}
		}
		accumulate(o, seed)
	}

	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		a := adj[v]
		if a == nil || v.back == nil || boundary[v] {
			continue
		}
		contribs := v.back(a)
		if len(contribs) != len(v.inputs) {
			panic(fmt.Sprintf("autodiff: op %q backward returned %d grads for %d inputs",
				v.name, len(contribs), len(v.inputs)))
		}
		for j, c := range contribs {
			in := v.inputs[j]
			if c == nil || !in.requires {
				continue
			}
			accumulate(in, c)
		}
	}

	res := make([]*Var, len(wrt))
	for i, w := range wrt {
		if a, ok := adj[w]; ok {
			res[i] = a
		} else {
			res[i] = g.Const(g.Adopt(tensor.New(w.Rows(), w.Cols())))
		}
	}
	return res
}

// GradScalar differentiates a 1×1 output with seed 1 with respect to wrt.
func GradScalar(out *Var, wrt []*Var) []*Var {
	if out.Value.Len() != 1 {
		panic("autodiff: GradScalar on non-scalar output")
	}
	return Grad([]*Var{out}, nil, wrt)
}
