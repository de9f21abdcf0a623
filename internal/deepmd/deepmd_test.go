package deepmd

import (
	"math"
	"math/rand"
	"testing"

	"fekf/internal/dataset"
	"fekf/internal/device"
	"fekf/internal/md"
	"fekf/internal/tensor"
)

// testData generates a tiny labelled Cu dataset once per test binary.
var testDataCache = map[string]*dataset.Dataset{}

func testData(t testing.TB, system string, n int) *dataset.Dataset {
	t.Helper()
	key := system
	if ds, ok := testDataCache[key]; ok && ds.Len() >= n {
		return ds.Subset(n)
	}
	ds, err := dataset.Generate(system, dataset.GenOptions{
		Snapshots: n, SampleEvery: 5, EquilSteps: 30, Scale: 1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	testDataCache[key] = ds
	return ds
}

func testModel(t testing.TB, ds *dataset.Dataset, level OptLevel) *Model {
	t.Helper()
	sys := SnapshotSystem(ds, &ds.Snapshots[0])
	cfg := TinyConfig(sys)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Level = level
	m.Dev = device.New("test", device.A100())
	if err := m.InitFromDataset(ds); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	good := Config{Rcs: 3, Rc: 4.5, MaxNeighbors: []int{8}, M: 8, MSub: 4, FitHidden: 8, NumSpecies: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Rcs: 5, Rc: 4.5, MaxNeighbors: []int{8}, M: 8, MSub: 4, FitHidden: 8, NumSpecies: 1},
		{Rcs: 3, Rc: 4.5, MaxNeighbors: []int{8, 8}, M: 8, MSub: 4, FitHidden: 8, NumSpecies: 1},
		{Rcs: 3, Rc: 4.5, MaxNeighbors: []int{8}, M: 4, MSub: 8, FitHidden: 8, NumSpecies: 1},
		{Rcs: 3, Rc: 4.5, MaxNeighbors: []int{0}, M: 8, MSub: 4, FitHidden: 8, NumSpecies: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestPaperConfigParamCount(t *testing.T) {
	spec, _ := md.GetSystem("Cu")
	sys, _ := spec.Build(1)
	cfg := PaperConfig(spec, sys)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// paper architecture: embedding [25,25,25] = 1350, fitting
	// [400,50,50,50,1] = 25201, total 26551 for one species.
	if got := m.NumParams(); got != 26551 {
		t.Fatalf("paper config params = %d, want 26551", got)
	}
	ls := m.Params.LayerSizes()
	if ls[0] != 50 || ls[1] != 650 || ls[2] != 650 || ls[3] != 20050 {
		t.Fatalf("layer sizes = %v", ls)
	}
	// The count DecodeModel bounds a stream by, before building anything,
	// is the count NewModel allocates, for every system and both scales.
	for _, name := range md.SystemNames() {
		spec, _ := md.GetSystem(name)
		sys, _ := spec.Build(1)
		for _, cfg := range []Config{PaperConfig(spec, sys), TinyConfig(sys)} {
			m, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if n, ok := cfg.numParams(); !ok || n != m.NumParams() {
				t.Fatalf("%s: numParams = %d, %v; NewModel has %d", name, n, ok, m.NumParams())
			}
		}
	}
}

func TestEnvPaddingAndTruncation(t *testing.T) {
	ds := testData(t, "Cu", 2)
	sys := SnapshotSystem(ds, &ds.Snapshots[0])
	cfg := TinyConfig(sys)
	env, err := BuildEnv(cfg, []*md.System{sys})
	if err != nil {
		t.Fatal(err)
	}
	if env.B != 1 || env.NaPer != sys.NumAtoms() {
		t.Fatalf("env dims B=%d Na=%d", env.B, env.NaPer)
	}
	nm := cfg.MaxNeighbors[0]
	if env.R[0].Rows != sys.NumAtoms()*nm {
		t.Fatalf("R rows = %d", env.R[0].Rows)
	}
	// every filled slot has positive s, every entry indexes a valid row
	for _, e := range env.Entries[0] {
		if e.Row < 0 || e.Row >= env.R[0].Rows {
			t.Fatalf("entry row %d out of range", e.Row)
		}
		if env.R[0].At(e.Row, 0) <= 0 {
			t.Fatalf("filled slot with s = %v", env.R[0].At(e.Row, 0))
		}
	}
	// slots per atom never exceed the budget
	perAtom := map[int]int{}
	for _, e := range env.Entries[0] {
		perAtom[e.I]++
	}
	for i, c := range perAtom {
		if c > nm {
			t.Fatalf("atom %d has %d filled slots > %d", i, c, nm)
		}
	}
}

func TestEnvBatchMismatchedAtoms(t *testing.T) {
	spec, _ := md.GetSystem("Cu")
	s1, _ := spec.Build(1)
	s2, _ := spec.Build(2)
	cfg := TinyConfig(s1)
	if _, err := BuildEnv(cfg, []*md.System{s1, s2}); err == nil {
		t.Fatal("expected error for mismatched atom counts")
	}
}

func TestForwardEnergyFinite(t *testing.T) {
	ds := testData(t, "Cu", 2)
	m := testModel(t, ds, OptBaseline)
	env, err := BuildBatchEnv(m.Cfg, ds, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	out := m.Forward(env, true)
	if out.Energies.Rows() != 2 {
		t.Fatalf("energies rows = %d", out.Energies.Rows())
	}
	for _, e := range out.Energies.Value.Data {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("energy = %v", e)
		}
	}
	if out.Forces.Rows() != 3*env.NumAtoms() {
		t.Fatalf("forces rows = %d", out.Forces.Rows())
	}
	// bias initialization puts predictions near the label scale
	lab := BatchLabels(ds, []int{0, 1})
	na := float64(lab.NaPer)
	for i := 0; i < 2; i++ {
		if math.Abs(out.Energies.Value.Data[i]-lab.Energy.Data[i])/na > 2 {
			t.Fatalf("per-atom energy error too large at init: pred %v label %v",
				out.Energies.Value.Data[i], lab.Energy.Data[i])
		}
	}
}

// TestForcesMatchEnergyGradient is the central physics check: the model's
// force output must equal −dE/dx of the model's own energy, computed by
// finite differences with env rebuilt at each displacement.
func TestForcesMatchEnergyGradient(t *testing.T) {
	ds := testData(t, "Cu", 1)
	for _, level := range []OptLevel{OptBaseline, OptManualForce, OptFused} {
		m := testModel(t, ds, level)
		snap := &ds.Snapshots[0]
		sys := SnapshotSystem(ds, snap)

		energyAt := func() float64 {
			env, err := BuildEnv(m.Cfg, []*md.System{sys})
			if err != nil {
				t.Fatal(err)
			}
			out := m.Forward(env, false)
			return out.Energies.Value.Data[0]
		}

		env, err := BuildEnv(m.Cfg, []*md.System{sys})
		if err != nil {
			t.Fatal(err)
		}
		out := m.Forward(env, true)
		forces := out.Forces.Value

		rng := rand.New(rand.NewSource(3))
		const h = 1e-5
		for trial := 0; trial < 8; trial++ {
			k := rng.Intn(len(sys.Pos))
			orig := sys.Pos[k]
			sys.Pos[k] = orig + h
			ep := energyAt()
			sys.Pos[k] = orig - h
			em := energyAt()
			sys.Pos[k] = orig
			want := -(ep - em) / (2 * h)
			if math.Abs(forces.Data[k]-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("%v: force[%d] = %v, -dE/dx = %v", level, k, forces.Data[k], want)
			}
		}
	}
}

// TestManualMatchesAutogradForces checks Opt1's correctness claim: the
// hand-derived force path must equal the autograd path bitwise-closely.
func TestManualMatchesAutogradForces(t *testing.T) {
	ds := testData(t, "Cu", 2)
	mA := testModel(t, ds, OptBaseline)
	mM := testModel(t, ds, OptManualForce)
	env, err := BuildBatchEnv(mA.Cfg, ds, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	outA := mA.Forward(env, true)
	outM := mM.Forward(env, true)
	if !tensor.Equal(outA.Energies.Value, outM.Energies.Value, 1e-12) {
		t.Fatal("energies differ between paths")
	}
	if !tensor.Equal(outA.Forces.Value, outM.Forces.Value, 1e-10) {
		t.Fatal("forces differ between autograd and manual paths")
	}
}

// TestFusedMatchesUnfusedModel checks Opt2 preserves values while reducing
// kernel launches.
func TestFusedMatchesUnfusedModel(t *testing.T) {
	ds := testData(t, "Cu", 2)
	m1 := testModel(t, ds, OptManualForce)
	m2 := testModel(t, ds, OptFused)
	env, err := BuildBatchEnv(m1.Cfg, ds, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	out1 := m1.Forward(env, true)
	out2 := m2.Forward(env, true)
	if !tensor.Equal(out1.Forces.Value, out2.Forces.Value, 1e-10) {
		t.Fatal("fusion changed force values")
	}
	k1 := m1.Dev.Counters().Kernels
	k2 := m2.Dev.Counters().Kernels
	if k2 >= k1 {
		t.Fatalf("fused kernels (%d) not fewer than unfused (%d)", k2, k1)
	}
}

// TestKernelCountsDecreaseAcrossOptLevels verifies the Figure 7(b) trend:
// baseline > opt1 > opt2 in launched kernels for a forward+force pass.
func TestKernelCountsDecreaseAcrossOptLevels(t *testing.T) {
	ds := testData(t, "Cu", 2)
	var counts []int64
	for _, level := range []OptLevel{OptBaseline, OptManualForce, OptFused} {
		m := testModel(t, ds, level)
		env, err := BuildBatchEnv(m.Cfg, ds, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		m.Dev.Reset()
		out := m.Forward(env, true)
		_ = m.EnergyGrad(out, nil)
		counts = append(counts, m.Dev.Counters().Kernels)
	}
	if !(counts[0] > counts[1] && counts[1] > counts[2]) {
		t.Fatalf("kernel counts not decreasing: %v", counts)
	}
}

// TestEnergyTranslationInvariance: the descriptor must be exactly
// translation invariant.
func TestEnergyTranslationInvariance(t *testing.T) {
	ds := testData(t, "Cu", 1)
	m := testModel(t, ds, OptFused)
	snap := &ds.Snapshots[0]
	sys := SnapshotSystem(ds, snap)
	env1, _ := BuildEnv(m.Cfg, []*md.System{sys})
	e1 := m.Forward(env1, false).Energies.Value.Data[0]
	moved := sys.Clone()
	for i := 0; i < moved.NumAtoms(); i++ {
		moved.Pos[3*i] += 0.77
		moved.Pos[3*i+1] -= 1.21
		moved.Pos[3*i+2] += 2.05
	}
	env2, _ := BuildEnv(m.Cfg, []*md.System{moved})
	e2 := m.Forward(env2, false).Energies.Value.Data[0]
	if math.Abs(e1-e2) > 1e-9*(1+math.Abs(e1)) {
		t.Fatalf("translation changed energy: %v vs %v", e1, e2)
	}
}

// TestEnergyRotationInvariance: rotate all coordinates by 90° about z
// (which maps the cubic cell onto itself) and check the energy.
func TestEnergyRotationInvariance(t *testing.T) {
	ds := testData(t, "Cu", 1)
	m := testModel(t, ds, OptFused)
	sys := SnapshotSystem(ds, &ds.Snapshots[0])
	env1, _ := BuildEnv(m.Cfg, []*md.System{sys})
	e1 := m.Forward(env1, false).Energies.Value.Data[0]
	rot := sys.Clone()
	for i := 0; i < rot.NumAtoms(); i++ {
		x, y := rot.Pos[3*i], rot.Pos[3*i+1]
		rot.Pos[3*i], rot.Pos[3*i+1] = y, rot.Box[1]-x
	}
	env2, _ := BuildEnv(m.Cfg, []*md.System{rot})
	e2 := m.Forward(env2, false).Energies.Value.Data[0]
	if math.Abs(e1-e2) > 1e-8*(1+math.Abs(e1)) {
		t.Fatalf("rotation changed energy: %v vs %v", e1, e2)
	}
}

// TestEnergyPermutationInvariance: swapping two same-species atoms must
// not change the energy.
func TestEnergyPermutationInvariance(t *testing.T) {
	ds := testData(t, "Cu", 1)
	m := testModel(t, ds, OptFused)
	sys := SnapshotSystem(ds, &ds.Snapshots[0])
	env1, _ := BuildEnv(m.Cfg, []*md.System{sys})
	e1 := m.Forward(env1, false).Energies.Value.Data[0]
	sw := sys.Clone()
	for d := 0; d < 3; d++ {
		sw.Pos[3*2+d], sw.Pos[3*7+d] = sw.Pos[3*7+d], sw.Pos[3*2+d]
	}
	env2, _ := BuildEnv(m.Cfg, []*md.System{sw})
	e2 := m.Forward(env2, false).Energies.Value.Data[0]
	if math.Abs(e1-e2) > 1e-9*(1+math.Abs(e1)) {
		t.Fatalf("permutation changed energy: %v vs %v", e1, e2)
	}
}

// TestEnergyGradMatchesFiniteDifference checks dE/dw for the EKF energy
// update.
func TestEnergyGradMatchesFiniteDifference(t *testing.T) {
	ds := testData(t, "Cu", 1)
	m := testModel(t, ds, OptFused)
	env, _ := BuildBatchEnv(m.Cfg, ds, []int{0})
	out := m.Forward(env, false)
	grad := m.EnergyGrad(out, nil)

	w := m.Params.FlattenValues()
	rng := rand.New(rand.NewSource(4))
	const h = 1e-6
	for trial := 0; trial < 10; trial++ {
		k := rng.Intn(len(w))
		orig := w[k]
		w[k] = orig + h
		m.Params.SetFlat(w)
		ep := m.Forward(env, false).Energies.Value.Data[0]
		w[k] = orig - h
		m.Params.SetFlat(w)
		em := m.Forward(env, false).Energies.Value.Data[0]
		w[k] = orig
		m.Params.SetFlat(w)
		want := (ep - em) / (2 * h)
		if math.Abs(grad[k]-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("dE/dw[%d] = %v, numeric %v", k, grad[k], want)
		}
	}
}

// TestForceGradMatchesFiniteDifference checks the double-backprop force
// gradient d(Σ c·F)/dw the EKF force update relies on, for both force
// paths.
func TestForceGradMatchesFiniteDifference(t *testing.T) {
	ds := testData(t, "Cu", 1)
	for _, level := range []OptLevel{OptBaseline, OptFused} {
		m := testModel(t, ds, level)
		env, _ := BuildBatchEnv(m.Cfg, ds, []int{0})
		out := m.Forward(env, true)
		seed := tensor.RandNormal(out.Forces.Rows(), 1, 1, rand.New(rand.NewSource(5)))
		grad := m.ForceGrad(out, seed)

		project := func() float64 {
			o := m.Forward(env, true)
			return tensor.Dot(o.Forces.Value, seed)
		}
		w := m.Params.FlattenValues()
		rng := rand.New(rand.NewSource(6))
		const h = 1e-6
		for trial := 0; trial < 6; trial++ {
			k := rng.Intn(len(w))
			orig := w[k]
			w[k] = orig + h
			m.Params.SetFlat(w)
			fp := project()
			w[k] = orig - h
			m.Params.SetFlat(w)
			fm := m.Params.NumParams()
			_ = fm
			fmv := project()
			w[k] = orig
			m.Params.SetFlat(w)
			want := (fp - fmv) / (2 * h)
			if math.Abs(grad[k]-want) > 2e-3*(1+math.Abs(want)) {
				t.Fatalf("%v: d(c·F)/dw[%d] = %v, numeric %v", level, k, grad[k], want)
			}
		}
	}
}

func TestEvaluateRuns(t *testing.T) {
	ds := testData(t, "Cu", 4)
	m := testModel(t, ds, OptFused)
	met, err := m.Evaluate(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(met.EnergyRMSE) || math.IsNaN(met.ForceRMSE) {
		t.Fatalf("metrics NaN: %+v", met)
	}
	if met.EnergyRMSE+met.ForceRMSE <= 0 {
		t.Fatalf("combined metric %v", met.EnergyRMSE+met.ForceRMSE)
	}
}

func TestLossGraphBackpropagates(t *testing.T) {
	ds := testData(t, "Cu", 2)
	m := testModel(t, ds, OptFused)
	env, _ := BuildBatchEnv(m.Cfg, ds, []int{0, 1})
	out := m.Forward(env, true)
	lab := BatchLabels(ds, []int{0, 1})
	loss := LossGraph(out, lab, DefaultLossWeights())
	if loss.Scalar() <= 0 {
		t.Fatalf("loss = %v", loss.Scalar())
	}
	grads := m.LossGrad(out, loss)
	nonzero := 0
	for _, v := range grads {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("loss gradient identically zero")
	}
}

// TestMultiSpeciesSystem exercises the per-type embedding/fitting paths.
func TestMultiSpeciesSystem(t *testing.T) {
	ds := testData(t, "NaCl", 2)
	m := testModel(t, ds, OptFused)
	if m.Cfg.NumSpecies != 2 {
		t.Fatalf("NumSpecies = %d", m.Cfg.NumSpecies)
	}
	env, err := BuildBatchEnv(m.Cfg, ds, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	out := m.Forward(env, true)
	for _, e := range out.Energies.Value.Data {
		if math.IsNaN(e) {
			t.Fatal("NaN energy on multi-species system")
		}
	}
	// force consistency on the two-species system too
	sys := SnapshotSystem(ds, &ds.Snapshots[0])
	envF, _ := BuildEnv(m.Cfg, []*md.System{sys})
	outF := m.Forward(envF, true)
	const h = 1e-5
	k := 5
	orig := sys.Pos[k]
	sys.Pos[k] = orig + h
	e1, _ := BuildEnv(m.Cfg, []*md.System{sys})
	ep := m.Forward(e1, false).Energies.Value.Data[0]
	sys.Pos[k] = orig - h
	e2, _ := BuildEnv(m.Cfg, []*md.System{sys})
	em := m.Forward(e2, false).Energies.Value.Data[0]
	sys.Pos[k] = orig
	want := -(ep - em) / (2 * h)
	if math.Abs(outF.Forces.Value.Data[k]-want) > 1e-4*(1+math.Abs(want)) {
		t.Fatalf("NaCl force[%d] = %v, -dE/dx = %v", k, outF.Forces.Value.Data[k], want)
	}
}

func TestOptLevelString(t *testing.T) {
	if OptBaseline.String() != "baseline" || OptManualForce.String() != "opt1" ||
		OptFused.String() != "opt2" || OptAll.String() != "opt3" {
		t.Fatal("OptLevel names wrong")
	}
}
