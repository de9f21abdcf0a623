// Package nn provides the parameter plumbing shared by the DeePMD model
// and its optimizers: an ordered registry of weight tensors with flat
// (vectorized) views.  The flat ordering is the one the EKF optimizers'
// block-splitting strategy operates on, so it is part of the public
// contract: parameters appear in registration order, each flattened
// row-major.
package nn

import (
	"fmt"
	"math/rand"

	"fekf/internal/tensor"
)

// ParamSet is an ordered collection of trainable tensors.
type ParamSet struct {
	names   []string
	tensors []*tensor.Dense
	total   int
}

// Register appends a tensor to the set under the given name and returns it
// for convenience.
func (ps *ParamSet) Register(name string, t *tensor.Dense) *tensor.Dense {
	ps.names = append(ps.names, name)
	ps.tensors = append(ps.tensors, t)
	ps.total += t.Len()
	return t
}

// NumParams returns the total number of scalar parameters.
func (ps *ParamSet) NumParams() int { return ps.total }

// Tensors returns the registered tensors in order (aliased).
func (ps *ParamSet) Tensors() []*tensor.Dense { return ps.tensors }

// LayerSizes returns element counts grouped per layer, where consecutive
// (weight, bias) registrations belonging to the same layer share a name
// prefix up to the last '/': e.g. "fit0/W" and "fit0/b" form one layer.
// The EKF splitting of the paper works on these per-layer sizes.
func (ps *ParamSet) LayerSizes() []int {
	var out []int
	prev := ""
	for i, name := range ps.names {
		layer := name
		if k := lastSlash(name); k >= 0 {
			layer = name[:k]
		}
		if layer == prev && len(out) > 0 {
			out[len(out)-1] += ps.tensors[i].Len()
		} else {
			out = append(out, ps.tensors[i].Len())
			prev = layer
		}
	}
	return out
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}

// FlattenValues copies the current parameter values into a new flat vector.
func (ps *ParamSet) FlattenValues() []float64 {
	out := make([]float64, 0, ps.total)
	for _, t := range ps.tensors {
		out = append(out, t.Data...)
	}
	return out
}

// SetFlat overwrites the parameters from a flat vector (length must equal
// NumParams).
func (ps *ParamSet) SetFlat(v []float64) {
	if len(v) != ps.total {
		panic(fmt.Sprintf("nn: SetFlat with %d values for %d params", len(v), ps.total))
	}
	off := 0
	for _, t := range ps.tensors {
		copy(t.Data, v[off:off+t.Len()])
		off += t.Len()
	}
}

// AddFlat adds a flat increment to the parameters in place: w += delta.
func (ps *ParamSet) AddFlat(delta []float64) {
	if len(delta) != ps.total {
		panic(fmt.Sprintf("nn: AddFlat with %d values for %d params", len(delta), ps.total))
	}
	off := 0
	for _, t := range ps.tensors {
		for i := range t.Data {
			t.Data[i] += delta[off+i]
		}
		off += t.Len()
	}
}

// FlattenAligned copies a list of tensors shaped like the parameter set
// (e.g. gradients returned by autodiff.Grad over the parameters) into a
// flat vector aligned with FlattenValues.
func (ps *ParamSet) FlattenAligned(ts []*tensor.Dense) []float64 {
	if len(ts) != len(ps.tensors) {
		panic(fmt.Sprintf("nn: FlattenAligned got %d tensors, want %d", len(ts), len(ps.tensors)))
	}
	out := make([]float64, 0, ps.total)
	for i, t := range ts {
		if !t.SameShape(ps.tensors[i]) {
			panic(fmt.Sprintf("nn: FlattenAligned tensor %d is %dx%d, want %dx%d",
				i, t.Rows, t.Cols, ps.tensors[i].Rows, ps.tensors[i].Cols))
		}
		out = append(out, t.Data...)
	}
	return out
}

// CopyFrom overwrites this set's values from another set with identical
// structure.
func (ps *ParamSet) CopyFrom(o *ParamSet) {
	if len(o.tensors) != len(ps.tensors) {
		panic("nn: CopyFrom structure mismatch")
	}
	for i, t := range ps.tensors {
		t.CopyFrom(o.tensors[i])
	}
}

// Dense is a fully-connected layer's parameters: output = act(x·W + b).
type Dense struct {
	W *tensor.Dense // in×out
	B *tensor.Dense // 1×out
}

// NewDense registers a Xavier-initialized in×out dense layer under the
// given layer name.
func NewDense(ps *ParamSet, name string, in, out int, rng *rand.Rand) Dense {
	w := ps.Register(name+"/W", tensor.XavierInit(in, out, rng))
	b := ps.Register(name+"/b", tensor.RandNormal(1, out, 0.01, rng))
	return Dense{W: w, B: b}
}
