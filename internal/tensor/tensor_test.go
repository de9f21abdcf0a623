package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, r, c int) *Dense {
	return RandNormal(r, c, 1, rng)
}

// naiveMatMul is the obviously-correct triple loop used as the reference
// for the blocked kernels.
func naiveMatMul(a, b *Dense) *Dense {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {7, 7, 7}, {65, 70, 66}, {128, 3, 129}} {
		a := randMat(rng, dims[0], dims[1])
		b := randMat(rng, dims[1], dims[2])
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !Equal(got, want, 1e-10) {
			t.Fatalf("MatMul %v mismatch", dims)
		}
	}
}

func TestMatMulTransposeVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 17, 9)
	b := randMat(rng, 17, 13)
	if !Equal(MatMulTA(a, b), MatMul(Transpose(a), b), 1e-10) {
		t.Fatal("MatMulTA != Aᵀ·B")
	}
	c := randMat(rng, 11, 9)
	if !Equal(MatMulTB(a, c), MatMul(a, Transpose(c)), 1e-10) {
		t.Fatal("MatMulTB != A·Bᵀ")
	}
}

func TestMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 8, 5)
	x := randMat(rng, 5, 1)
	y := New(8, 1)
	MatVecInto(y.Data, a, x.Data)
	if !Equal(y, MatMul(a, x), 1e-12) {
		t.Fatal("MatVecInto != MatMul")
	}
}

func TestOuter(t *testing.T) {
	x := Vector([]float64{1, 2})
	y := Vector([]float64{3, 4, 5})
	got := Outer(x, y)
	want := FromSlice(2, 3, []float64{3, 4, 5, 6, 8, 10})
	if !Equal(got, want, 0) {
		t.Fatalf("Outer = %v", got)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestPropTransposeOfProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		return Equal(Transpose(MatMul(a, b)), MatMul(Transpose(b), Transpose(a)), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix multiplication distributes over addition.
func TestPropDistributive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(10)
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		c := randMat(r, k, n)
		left := MatMul(a, Add(b, c))
		right := Add(MatMul(a, b), MatMul(a, c))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot(x, A·y) == Dot(Aᵀ·x, y) (adjoint identity used throughout
// the autodiff engine).
func TestPropAdjointIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(10), 1+r.Intn(10)
		a := randMat(r, m, n)
		x := randMat(r, m, 1)
		y := randMat(r, n, 1)
		return math.Abs(Dot(x, MatMul(a, y))-Dot(MatMul(Transpose(a), x), y)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	if !Equal(Add(a, b), FromSlice(2, 2, []float64{6, 8, 10, 12}), 0) {
		t.Fatal("Add")
	}
	if !Equal(Sub(b, a), FromSlice(2, 2, []float64{4, 4, 4, 4}), 0) {
		t.Fatal("Sub")
	}
	if !Equal(MulElem(a, b), FromSlice(2, 2, []float64{5, 12, 21, 32}), 0) {
		t.Fatal("MulElem")
	}
	if !Equal(Scale(2, a), FromSlice(2, 2, []float64{2, 4, 6, 8}), 0) {
		t.Fatal("Scale")
	}
}

func TestReductionsAndNorms(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, -2, 3, -4})
	if Sum(a) != -2 {
		t.Fatalf("Sum = %v", Sum(a))
	}
	if math.Abs(Norm2(a)-math.Sqrt(30)) > 1e-12 {
		t.Fatalf("Norm2 = %v", Norm2(a))
	}
}

func TestAddRowVecColSumAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randMat(rng, 5, 3)
	b := randMat(rng, 1, 3)
	got := AddRowVec(a, b)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			if got.At(i, j) != a.At(i, j)+b.At(0, j) {
				t.Fatal("AddRowVec wrong")
			}
		}
	}
	cs := ColSum(a)
	for j := 0; j < 3; j++ {
		s := 0.0
		for i := 0; i < 5; i++ {
			s += a.At(i, j)
		}
		if math.Abs(cs.At(0, j)-s) > 1e-12 {
			t.Fatal("ColSum wrong")
		}
	}
}

func TestSliceColsAndAccumulate(t *testing.T) {
	a := FromSlice(2, 4, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	s := SliceCols(a, 1, 3)
	if !Equal(s, FromSlice(2, 2, []float64{2, 3, 6, 7}), 0) {
		t.Fatalf("SliceCols = %v", s)
	}
	dst := New(2, 4)
	AccumulateCols(dst, 1, s)
	AccumulateCols(dst, 1, s)
	if dst.At(0, 1) != 4 || dst.At(1, 2) != 14 || dst.At(0, 0) != 0 {
		t.Fatalf("AccumulateCols = %v", dst)
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := a.Reshape(3, 2)
	b.Set(0, 0, 99)
	if a.At(0, 0) != 99 {
		t.Fatal("Reshape must share backing data")
	}
}

func TestAffineTanhMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randMat(rng, 6, 4)
	w := randMat(rng, 4, 5)
	b := randMat(rng, 1, 5)
	got := AffineTanh(x, w, b)
	want := Tanh(AddRowVec(MatMul(x, w), b))
	if !Equal(got, want, 1e-12) {
		t.Fatal("AffineTanh != tanh(XW+b)")
	}
}

func TestResidualAffineTanhMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randMat(rng, 6, 5)
	w := randMat(rng, 5, 5)
	b := randMat(rng, 1, 5)
	got := ResidualAffineTanh(x, w, b)
	want := Add(x, Tanh(AddRowVec(MatMul(x, w), b)))
	if !Equal(got, want, 1e-12) {
		t.Fatal("ResidualAffineTanh != X+tanh(XW+b)")
	}
}

// Property: the fused P update equals the naive framework-style update for
// random symmetric P and random K (the correctness claim behind Opt3).
func TestPropPUpdateFusedEqualsNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		m := randMat(r, n, n)
		p1 := MatMulTA(m, m) // symmetric PSD
		p2 := p1.Clone()
		k := randMat(r, n, 1)
		a := 0.1 + r.Float64()
		lambda := 0.5 + 0.5*r.Float64()
		PUpdateNaive(p1, k, a, lambda)
		PUpdateFusedSlab(p2, 0, k.Data, a, lambda)
		return Equal(p1, p2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetrizeAndEye(t *testing.T) {
	p := FromSlice(2, 2, []float64{1, 2, 4, 3})
	SymmetrizeInPlace(p)
	if !Equal(p, FromSlice(2, 2, []float64{1, 3, 3, 3}), 0) {
		t.Fatalf("Symmetrize = %v", p)
	}
	if !IsSymmetric(Eye(4), 0) {
		t.Fatal("Eye not symmetric")
	}
	if Sum(Eye(4)) != 4 {
		t.Fatal("Eye trace wrong")
	}
}

func TestPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	Add(New(2, 2), New(3, 3))
}

func TestRandomInit(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := XavierInit(100, 100, rng)
	std := math.Sqrt(2.0 / 200.0)
	// sample std should be within 20% of the target for 10k draws
	var s2 float64
	for _, v := range m.Data {
		s2 += v * v
	}
	got := math.Sqrt(s2 / float64(m.Len()))
	if got < 0.8*std || got > 1.2*std {
		t.Fatalf("Xavier std = %v want ~%v", got, std)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x := randMat(rng, 128, 128)
	y := randMat(rng, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkPUpdateNaive512(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	p := MatMulTA(randMat(rng, 512, 512), randMat(rng, 512, 512))
	k := randMat(rng, 512, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PUpdateNaive(p, k, 1.1, 0.98)
	}
}

func BenchmarkPUpdateFused512(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	p := MatMulTA(randMat(rng, 512, 512), randMat(rng, 512, 512))
	k := randMat(rng, 512, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PUpdateFusedSlab(p, 0, k.Data, 1.1, 0.98)
	}
}

func TestOuterViaGEMMMatchesOuter(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	k := randMat(rng, 17, 1)
	direct := Outer(k, k)
	for _, tile := range []int{1, 8} {
		if !Equal(OuterViaGEMM(k, tile), direct, 1e-12) {
			t.Fatalf("OuterViaGEMM(tile=%d) differs from Outer", tile)
		}
	}
}

func BenchmarkSupplementaryKKTOuter(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	k := randMat(rng, 512, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Outer(k, k)
	}
}

func BenchmarkSupplementaryKKTViaGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	k := randMat(rng, 512, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OuterViaGEMM(k, 8)
	}
}
