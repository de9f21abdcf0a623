package md

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// perturb jitters all atom positions by up to amp Å.
func perturb(s *System, amp float64, rng *rand.Rand) {
	for i := range s.Pos {
		s.Pos[i] += amp * (2*rng.Float64() - 1)
	}
}

// checkForces verifies that the analytic forces of p equal -dE/dx by
// central finite differences on a handful of random coordinates.
func checkForces(t *testing.T, name string, p Potential, s *System, rng *rand.Rand, tol float64) {
	t.Helper()
	_, forces := ComputeAll(p, s)
	const h = 1e-5
	for trial := 0; trial < 12; trial++ {
		idx := rng.Intn(len(s.Pos))
		orig := s.Pos[idx]
		s.Pos[idx] = orig + h
		ep, _ := ComputeAll(p, s)
		s.Pos[idx] = orig - h
		em, _ := ComputeAll(p, s)
		s.Pos[idx] = orig
		want := -(ep - em) / (2 * h)
		if math.Abs(forces[idx]-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("%s: force[%d] = %v, -dE/dx = %v", name, idx, forces[idx], want)
		}
	}
}

func TestMorseForcesMatchEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, p := mustBuild(t, "Cu", 1)
	perturb(s, 0.15, rng)
	checkForces(t, "Morse/Cu", p, s, rng, 1e-5)
}

func TestSWForcesMatchEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, p := mustBuild(t, "Si", 1)
	perturb(s, 0.12, rng)
	checkForces(t, "SW/Si", p, s, rng, 1e-5)
}

func TestIonicForcesMatchEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, name := range []string{"NaCl", "CuO", "HfO2"} {
		s, p := mustBuild(t, name, 1)
		perturb(s, 0.1, rng)
		checkForces(t, name, p, s, rng, 1e-4)
	}
}

func TestWaterForcesMatchEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s, p := mustBuild(t, "H2O", 1)
	perturb(s, 0.05, rng)
	checkForces(t, "Water", p, s, rng, 1e-4)
}

func TestLJForcesMatchEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := FCC(3.615, 2, Species{Name: "X", Mass: 50})
	perturb(s, 0.1, rng)
	p := LennardJones{Eps: 0.1, Sigma: 2.3, Ron: 4.0, Rc: 5.0}
	checkForces(t, "LJ", p, s, rng, 1e-5)
}

func mustBuild(t *testing.T, name string, scale int) (*System, Potential) {
	t.Helper()
	spec, err := GetSystem(name)
	if err != nil {
		t.Fatal(err)
	}
	s, p := spec.Build(scale)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s, p
}

func TestForcesSumToZero(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, name := range SystemNames() {
		s, p := mustBuild(t, name, 1)
		perturb(s, 0.1, rng)
		_, f := ComputeAll(p, s)
		var fx, fy, fz float64
		for i := 0; i < s.NumAtoms(); i++ {
			fx += f[3*i]
			fy += f[3*i+1]
			fz += f[3*i+2]
		}
		if math.Abs(fx)+math.Abs(fy)+math.Abs(fz) > 1e-8 {
			t.Fatalf("%s: net force (%g,%g,%g) nonzero", name, fx, fy, fz)
		}
	}
}

func TestEnergyTranslationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range SystemNames() {
		s, p := mustBuild(t, name, 1)
		perturb(s, 0.1, rng)
		e1, _ := ComputeAll(p, s)
		for i := 0; i < s.NumAtoms(); i++ {
			s.Pos[3*i] += 1.234
			s.Pos[3*i+1] -= 0.567
			s.Pos[3*i+2] += 7.1
		}
		e2, _ := ComputeAll(p, s)
		if math.Abs(e1-e2) > 1e-8*(1+math.Abs(e1)) {
			t.Fatalf("%s: E changed under translation: %v vs %v", name, e1, e2)
		}
	}
}

func TestNeighborCellMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := FCC(3.615, 5, Species{Name: "Cu", Mass: massCu}) // 18 Å box, cutoff < L/2
	perturb(s, 0.2, rng)
	cutoff := 5.0
	cell := BuildNeighbors(s, cutoff)
	brute := BuildNeighborsBrute(s, cutoff)
	for i := range cell.Lists {
		if len(cell.Lists[i]) != len(brute.Lists[i]) {
			t.Fatalf("atom %d: cell %d neighbors, brute %d", i, len(cell.Lists[i]), len(brute.Lists[i]))
		}
	}
	// spot-check distances agree atom by atom as multisets
	sumR := func(l []Neighbor) float64 {
		s := 0.0
		for _, nb := range l {
			s += nb.R
		}
		return s
	}
	for i := range cell.Lists {
		if math.Abs(sumR(cell.Lists[i])-sumR(brute.Lists[i])) > 1e-9 {
			t.Fatalf("atom %d neighbor distances differ", i)
		}
	}
}

func TestNeighborImagesSeesPeriodicCopies(t *testing.T) {
	// one atom in a small box: with cutoff > L it must see its own images
	s := &System{
		Box:     [3]float64{3, 3, 3},
		Pos:     []float64{1, 1, 1},
		Types:   []int{0},
		Species: []Species{{Name: "X", Mass: 1}},
	}
	nl := BuildNeighborsImages(s, 3.5)
	if len(nl.Lists[0]) != 6 {
		t.Fatalf("expected 6 first-shell images, got %d", len(nl.Lists[0]))
	}
	for _, nb := range nl.Lists[0] {
		if nb.J != 0 || math.Abs(nb.R-3) > 1e-12 {
			t.Fatalf("unexpected image entry %+v", nb)
		}
	}
}

// Property: each neighbor entry has a mirrored entry (full-list symmetry),
// which the half-weight pair formulation relies on.
func TestPropNeighborListSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := FCC(3.615, 2, Species{Name: "Cu", Mass: massCu})
		perturb(s, 0.2, rng)
		nl := BuildNeighbors(s, 5.2)
		count := map[[2]int]int{}
		for i, lst := range nl.Lists {
			for _, nb := range lst {
				count[[2]int{i, nb.J}]++
			}
		}
		for k, v := range count {
			if count[[2]int{k[1], k[0]}] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestSmoothCutoff(t *testing.T) {
	c := SmoothCutoff{Rcs: 2, Rc: 4}
	if s, _ := c.Eval(1.0); s != 1.0 {
		t.Fatalf("s(1) = %v want 1", s)
	}
	if s, ds := c.Eval(5.0); s != 0 || ds != 0 {
		t.Fatal("s beyond rc must vanish")
	}
	// continuity at rcs and rc
	sIn, _ := c.Eval(2 - 1e-9)
	sOut, _ := c.Eval(2 + 1e-9)
	if math.Abs(sIn-sOut) > 1e-6 {
		t.Fatalf("discontinuity at rcs: %v vs %v", sIn, sOut)
	}
	sEnd, _ := c.Eval(4 - 1e-9)
	if math.Abs(sEnd) > 1e-6 {
		t.Fatalf("s(rc⁻) = %v want ~0", sEnd)
	}
	// derivative by finite differences across the switching region
	for _, r := range []float64{1.3, 2.5, 3.1, 3.9} {
		const h = 1e-7
		sp, _ := c.Eval(r + h)
		sm, _ := c.Eval(r - h)
		_, ds := c.Eval(r)
		num := (sp - sm) / (2 * h)
		if math.Abs(ds-num) > 1e-5*(1+math.Abs(num)) {
			t.Fatalf("ds(%v) = %v, numeric %v", r, ds, num)
		}
	}
}

func TestLatticeCounts(t *testing.T) {
	if n := FCC(3.6, 3, Species{Name: "Cu", Mass: 1}).NumAtoms(); n != 108 {
		t.Fatalf("FCC 3³ = %d atoms, want 108", n)
	}
	if n := Diamond(5.4, 2, Species{Name: "Si", Mass: 1}).NumAtoms(); n != 64 {
		t.Fatalf("Diamond 2³ = %d atoms, want 64", n)
	}
	rs := RockSalt(5.6, 2, Species{Name: "Na", Mass: 1, Charge: 1}, Species{Name: "Cl", Mass: 1, Charge: -1})
	if rs.NumAtoms() != 64 {
		t.Fatalf("RockSalt 2³ = %d atoms, want 64", rs.NumAtoms())
	}
	// charge neutrality
	q := 0.0
	for _, ty := range rs.Types {
		q += rs.Species[ty].Charge
	}
	if q != 0 {
		t.Fatalf("RockSalt net charge %v", q)
	}
	fl := Fluorite(5.08, 2, Species{Name: "Hf", Mass: 1, Charge: 2.4}, Species{Name: "O", Mass: 1, Charge: -1.2})
	if fl.NumAtoms() != 96 {
		t.Fatalf("Fluorite 2³ = %d atoms, want 96", fl.NumAtoms())
	}
	q = 0
	for _, ty := range fl.Types {
		q += fl.Species[ty].Charge
	}
	if math.Abs(q) > 1e-9 {
		t.Fatalf("Fluorite net charge %v", q)
	}
	w := WaterBox(7.8, 16, Species{Name: "O", Mass: 16, Charge: -0.82}, Species{Name: "H", Mass: 1, Charge: 0.41})
	if w.NumAtoms() != 48 {
		t.Fatalf("WaterBox 16 molecules = %d atoms, want 48", w.NumAtoms())
	}
	if n := HCP(3.2, 5.2, [3]int{3, 1, 3}, Species{Name: "Mg", Mass: 1}).NumAtoms(); n != 36 {
		t.Fatalf("HCP 3x1x3 = %d atoms, want 36", n)
	}
}

func TestInitVelocitiesTemperatureAndDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := FCC(3.615, 3, Species{Name: "Cu", Mass: massCu})
	s.InitVelocities(600, rng)
	T := s.Temperature()
	if T < 400 || T > 800 {
		t.Fatalf("initialized T = %v, want ~600", T)
	}
	var px, py, pz float64
	for i := 0; i < s.NumAtoms(); i++ {
		m := s.Species[s.Types[i]].Mass
		px += m * s.Vel[3*i]
		py += m * s.Vel[3*i+1]
		pz += m * s.Vel[3*i+2]
	}
	if math.Abs(px)+math.Abs(py)+math.Abs(pz) > 1e-9 {
		t.Fatalf("net momentum (%g,%g,%g)", px, py, pz)
	}
}

func TestLangevinEquilibratesTemperature(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s, p := mustBuild(t, "Cu", 1)
	s.InitVelocities(400, rng)
	lg := NewLangevin(p, 2.0, 400, rng)
	lg.Friction = 0.1
	sum, count := 0.0, 0
	lg.Run(s, 400, 10, func(step int) {
		if step > 100 {
			sum += s.Temperature()
			count++
		}
	})
	mean := sum / float64(count)
	if mean < 250 || mean > 550 {
		t.Fatalf("mean T = %v, want ~400", mean)
	}
	// system must stay bound (no explosion)
	e, _ := ComputeAll(p, s)
	if math.IsNaN(e) || math.IsInf(e, 0) {
		t.Fatalf("energy diverged: %v", e)
	}
}

func TestLangevinStableForAllSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("MD stability sweep is slow")
	}
	rng := rand.New(rand.NewSource(11))
	for _, name := range SystemNames() {
		spec, err := GetSystem(name)
		if err != nil {
			t.Fatal(err)
		}
		s, p := spec.Build(1)
		T := spec.Temperatures[0]
		s.InitVelocities(T, rng)
		lg := NewLangevin(p, spec.TimeStep, T, rng)
		lg.Run(s, 120, 0, nil)
		e, _ := ComputeAll(p, s)
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("%s: diverged after 120 steps (E=%v)", name, e)
		}
		if tt := s.Temperature(); tt > 20*T+1000 {
			t.Fatalf("%s: runaway temperature %v at target %v", name, tt, T)
		}
	}
}

func TestGetSystemUnknown(t *testing.T) {
	if _, err := GetSystem("Unobtainium"); err == nil {
		t.Fatal("expected error for unknown system")
	}
}

func TestWrapAndDisplacement(t *testing.T) {
	s := &System{
		Box:     [3]float64{10, 10, 10},
		Pos:     []float64{9.5, 0, 0, 0.5, 0, 0},
		Types:   []int{0, 0},
		Species: []Species{{Name: "X", Mass: 1}},
	}
	dx, _, _, r := s.Displacement(0, 1)
	if math.Abs(dx-1.0) > 1e-12 || math.Abs(r-1.0) > 1e-12 {
		t.Fatalf("minimum image: dx=%v r=%v want 1", dx, r)
	}
	s.Pos[0] = -0.2
	s.Wrap()
	if s.Pos[0] < 0 || s.Pos[0] >= 10 {
		t.Fatalf("wrap failed: %v", s.Pos[0])
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	s := FCC(3.6, 2, Species{Name: "Cu", Mass: 1})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	s.Types[0] = 99
	if err := s.Validate(); err == nil {
		t.Fatal("expected species-index error")
	}
	s.Types[0] = 0
	s.Pos = s.Pos[:len(s.Pos)-1]
	if err := s.Validate(); err == nil {
		t.Fatal("expected position-length error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := FCC(3.6, 2, Species{Name: "Cu", Mass: 1})
	c := s.Clone()
	c.Pos[0] = 99
	c.Types[0] = 0
	if s.Pos[0] == 99 {
		t.Fatal("clone shares position storage")
	}
}

func BenchmarkNeighborsCellList(b *testing.B) {
	s := FCC(3.615, 6, Species{Name: "Cu", Mass: massCu})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildNeighbors(s, 5.0)
	}
}

func BenchmarkComputeSW(b *testing.B) {
	s := Diamond(5.431, 2, Species{Name: "Si", Mass: massSi})
	p := SWSilicon()
	nl := BuildNeighbors(s, p.Cutoff())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Compute(s, nl)
	}
}

func TestTinyBuildsStableAndSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, name := range SystemNames() {
		spec, err := GetSystem(name)
		if err != nil {
			t.Fatal(err)
		}
		s, p := spec.TinyBuild()
		if err := s.Validate(); err != nil {
			t.Fatalf("%s tiny: %v", name, err)
		}
		if n := s.NumAtoms(); n < 4 || n > 40 {
			t.Fatalf("%s tiny cell has %d atoms", name, n)
		}
		T := spec.Temperatures[0]
		s.InitVelocities(T, rng)
		lg := NewLangevin(p, spec.TimeStep, T, rng)
		lg.Run(s, 60, 0, nil)
		e, _ := ComputeAll(p, s)
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("%s tiny: diverged (E=%v)", name, e)
		}
	}
}
