// Package tensor provides dense row-major float64 matrices and the math
// kernels the DeePMD reproduction is built on: blocked matrix multiply,
// element-wise maps, reductions, and the fused kernels that back the
// paper's kernel-fusion optimizations (Opt2/Opt3 in Section 3.4).
//
// A Dense value is a matrix; vectors are represented as n×1 matrices.  All
// kernels are plain Go so the simulated-device layer above can account
// launches, flops and bytes deterministically.
package tensor

import (
	"fmt"
	"math"
)

// Dense is a dense row-major matrix of float64.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// FromSlice wraps data (not copied) as an r×c matrix.
func FromSlice(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d needs %d values, got %d", r, c, r*c, len(data)))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// Vector returns data wrapped as an n×1 column vector (not copied).
func Vector(data []float64) *Dense { return FromSlice(len(data), 1, data) }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := newUninit(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// At returns element (i,j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Len returns the number of elements.
func (m *Dense) Len() int { return m.Rows * m.Cols }

// SameShape reports whether m and o have identical dimensions.
func (m *Dense) SameShape(o *Dense) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

// Reshape returns a view of m's data with new dimensions r×c.  The element
// count must be preserved; the returned matrix shares m's backing slice.
func (m *Dense) Reshape(r, c int) *Dense {
	if r*c != m.Len() {
		panic(fmt.Sprintf("tensor: reshape %dx%d -> %dx%d changes size", m.Rows, m.Cols, r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: m.Data}
}

// Fill sets every element of m to v.
func (m *Dense) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// CopyFrom copies o's contents into m; shapes must match.
func (m *Dense) CopyFrom(o *Dense) {
	if !m.SameShape(o) {
		panic(shapeErr("CopyFrom", m, o))
	}
	copy(m.Data, o.Data)
}

func shapeErr(op string, a, b *Dense) string {
	return fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols)
}

// Add returns a+b.
func Add(a, b *Dense) *Dense {
	if !a.SameShape(b) {
		panic(shapeErr("Add", a, b))
	}
	out := newUninit(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

// Sub returns a-b.
func Sub(a, b *Dense) *Dense {
	if !a.SameShape(b) {
		panic(shapeErr("Sub", a, b))
	}
	out := newUninit(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v - b.Data[i]
	}
	return out
}

// MulElem returns the element-wise (Hadamard) product a⊙b.
func MulElem(a, b *Dense) *Dense {
	if !a.SameShape(b) {
		panic(shapeErr("MulElem", a, b))
	}
	out := newUninit(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v * b.Data[i]
	}
	return out
}

// Scale returns s·a.
func Scale(s float64, a *Dense) *Dense {
	out := newUninit(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = s * v
	}
	return out
}

// Tanh returns element-wise tanh(a).
func Tanh(a *Dense) *Dense {
	out := newUninit(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = math.Tanh(v)
	}
	return out
}

// TanhPrimeFromOutput returns 1-y² element-wise, the derivative of tanh
// expressed in terms of its output y.
func TanhPrimeFromOutput(y *Dense) *Dense {
	out := newUninit(y.Rows, y.Cols)
	for i, v := range y.Data {
		out.Data[i] = 1 - v*v
	}
	return out
}

// Transpose returns aᵀ as a new matrix.
func Transpose(a *Dense) *Dense {
	out := newUninit(a.Cols, a.Rows)
	transposeInto(out, a)
	return out
}

// transposeInto writes aᵀ into out, which must be a.Cols×a.Rows.
func transposeInto(out, a *Dense) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[j*a.Rows+i] = a.Data[i*a.Cols+j]
		}
	}
}

// Sum returns the sum of all elements.
func Sum(a *Dense) float64 {
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	return s
}

// Dot returns the inner product of a and b viewed as flat vectors.
func Dot(a, b *Dense) float64 {
	if a.Len() != b.Len() {
		panic(shapeErr("Dot", a, b))
	}
	s := 0.0
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of a viewed as a flat vector.
func Norm2(a *Dense) float64 { return math.Sqrt(Dot(a, a)) }

// AddRowVec returns a with the 1×c row vector b added to every row.
func AddRowVec(a, b *Dense) *Dense {
	if b.Rows != 1 || b.Cols != a.Cols {
		panic(shapeErr("AddRowVec", a, b))
	}
	out := newUninit(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			orow[j] = v + b.Data[j]
		}
	}
	return out
}

// ColSum returns the 1×c row vector of column sums of a (the adjoint of a
// row broadcast).
func ColSum(a *Dense) *Dense {
	out := New(1, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			out.Data[j] += v
		}
	}
	return out
}

// SliceCols returns a copy of columns [lo,hi) of a.
func SliceCols(a *Dense, lo, hi int) *Dense {
	if lo < 0 || hi > a.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %d cols", lo, hi, a.Cols))
	}
	out := newUninit(a.Rows, hi-lo)
	for i := 0; i < a.Rows; i++ {
		copy(out.Data[i*out.Cols:(i+1)*out.Cols], a.Data[i*a.Cols+lo:i*a.Cols+hi])
	}
	return out
}

// AccumulateCols adds src into columns [lo,lo+src.Cols) of dst in place;
// it is the adjoint of SliceCols.
func AccumulateCols(dst *Dense, lo int, src *Dense) {
	if src.Rows != dst.Rows || lo < 0 || lo+src.Cols > dst.Cols {
		panic(fmt.Sprintf("tensor: AccumulateCols src %dx%d at col %d of %dx%d",
			src.Rows, src.Cols, lo, dst.Rows, dst.Cols))
	}
	for i := 0; i < dst.Rows; i++ {
		d := dst.Data[i*dst.Cols+lo : i*dst.Cols+lo+src.Cols]
		s := src.Data[i*src.Cols : (i+1)*src.Cols]
		for j, v := range s {
			d[j] += v
		}
	}
}

// Equal reports whether a and b have the same shape and all elements are
// within tol of each other.
func Equal(a, b *Dense, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging.
func (m *Dense) String() string {
	if m.Len() > 64 {
		return fmt.Sprintf("Dense(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Dense(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
