package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// drainBuffers empties the free list of length n, so the next New of
// that length allocates a fresh zeroed buffer.
func drainBuffers(n int) {
	for bufferPool(n).Get() != nil {
	}
}

// onRecycledNaN runs kernel with a NaN-filled buffer of length n waiting
// in the free list and returns its result once the kernel has drawn that
// buffer (sync.Pool may drop a Put, so it retries).
func onRecycledNaN(t *testing.T, n int, kernel func() *Dense) *Dense {
	t.Helper()
	for try := 0; try < 50; try++ {
		drainBuffers(n)
		stale := &Dense{Rows: 1, Cols: n, Data: make([]float64, n)}
		stale.Fill(math.NaN())
		Recycle(stale)
		out := kernel()
		if len(out.Data) == n && &out.Data[0] == &stale.Data[0] {
			return out
		}
	}
	t.Fatalf("kernel never drew the recycled length-%d buffer", n)
	return nil
}

// TestRecycledBuffersAreInvisible hands every kernel that draws its
// output from the free list a NaN-filled recycled buffer, and requires
// the result to be bitwise equal to the same kernel on a fresh buffer:
// the no-clear kernels must write every element, the accumulating ones
// must get a zeroed buffer from New.
func TestRecycledBuffersAreInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const r, c, k = 24, 32, 20 // every output below has >= bufferFloor elements
	a, b := randDense(r, c, rng), randDense(r, c, rng)
	sq := randDense(c, c, rng)
	bias := randDense(1, c, rng)
	row := randDense(1, c, rng)
	left := randDense(r, k, rng)
	right := randDense(k, c, rng)
	rightT := randDense(c, k, rng)
	col2 := randDense(32, 1, rng)
	y := Tanh(a)
	const batch = 4
	ba := randDense(batch*8, k, rng) // 4 blocks of 8×k
	bb := randDense(batch*k, c, rng) // 4 blocks of k×c
	bt := randDense(batch*c, k, rng) // 4 blocks of c×k

	kernels := []struct {
		name string
		run  func() *Dense
	}{
		{"New", func() *Dense { return New(r, c) }},
		{"Clone", a.Clone},
		{"Add", func() *Dense { return Add(a, b) }},
		{"Sub", func() *Dense { return Sub(a, b) }},
		{"MulElem", func() *Dense { return MulElem(a, b) }},
		{"Scale", func() *Dense { return Scale(-0.5, a) }},
		{"Tanh", func() *Dense { return Tanh(a) }},
		{"TanhPrimeFromOutput", func() *Dense { return TanhPrimeFromOutput(y) }},
		{"TanhBackward", func() *Dense { return TanhBackward(b, y) }},
		{"Transpose", func() *Dense { return Transpose(a) }},
		{"AddRowVec", func() *Dense { return AddRowVec(a, row) }},
		{"SliceCols", func() *Dense { return SliceCols(a, 4, 28) }},
		{"BlockRepeat", func() *Dense { return BlockRepeat(row.Reshape(1, c), r) }},
		{"AffineTanh", func() *Dense { return AffineTanh(a, sq, bias) }},
		{"ResidualAffineTanh", func() *Dense { return ResidualAffineTanh(a, sq, bias) }},
		{"Affine", func() *Dense { return Affine(a, sq, bias) }},
		{"MatMul", func() *Dense { return MatMul(left, right) }},
		{"MatMulTA", func() *Dense { return MatMulTA(a, b.Reshape(r, c)) }},
		{"MatMulTB", func() *Dense { return MatMulTB(left, rightT) }},
		{"Outer", func() *Dense { return Outer(col2, col2) }},
		{"BatchedMatMul", func() *Dense { return BatchedMatMul(ba, bb, batch) }},
		{"BatchedMatMulTA", func() *Dense { return BatchedMatMulTA(bb, bb, batch) }},
		{"BatchedMatMulTB", func() *Dense { return BatchedMatMulTB(ba, bt, batch) }},
	}
	for _, kc := range kernels {
		t.Run(kc.name, func(t *testing.T) {
			want := kc.run()
			n := want.Len()
			if n < bufferFloor {
				t.Fatalf("output of %d elements is below the recycling floor", n)
			}
			drainBuffers(n)
			fresh := kc.run() // drawn from an empty free list: make's zeroed memory
			for i := range want.Data {
				if math.Float64bits(fresh.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("kernel not deterministic at element %d", i)
				}
			}
			got := onRecycledNaN(t, n, kc.run)
			if !got.SameShape(fresh) {
				t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, fresh.Rows, fresh.Cols)
			}
			for i, v := range fresh.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
					t.Fatalf("element %d on a recycled buffer is %v, fresh %v", i, got.Data[i], v)
				}
			}
		})
	}
}

// Recycle leaves small buffers and sub-slices to the garbage collector: a
// slice that does not span its backing array may share it with live data.
func TestRecycleSkipsSmallAndPartialBuffers(t *testing.T) {
	small := New(1, bufferFloor-1)
	backing := make([]float64, 2*bufferFloor)
	part := FromSlice(1, bufferFloor, backing[:bufferFloor])
	for try := 0; try < 20; try++ {
		drainBuffers(bufferFloor - 1)
		drainBuffers(bufferFloor)
		Recycle(small)
		Recycle(part)
		if m := New(1, bufferFloor-1); &m.Data[0] == &small.Data[0] {
			t.Fatal("a buffer below the floor was recycled")
		}
		if m := New(1, bufferFloor); &m.Data[0] == &backing[0] {
			t.Fatal("a partial slice was recycled")
		}
	}
}
