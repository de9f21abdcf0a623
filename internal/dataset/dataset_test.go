package dataset

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"fekf/internal/md"
)

func genSmall(t *testing.T, system string, n int) *Dataset {
	t.Helper()
	ds, err := Generate(system, GenOptions{
		Snapshots: n, SampleEvery: 3, EquilSteps: 20, Scale: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateProducesRequestedCount(t *testing.T) {
	ds := genSmall(t, "Cu", 10)
	if ds.Len() != 10 {
		t.Fatalf("got %d snapshots, want 10", ds.Len())
	}
	if ds.System != "Cu" {
		t.Fatalf("system = %q", ds.System)
	}
	if len(ds.Species) == 0 {
		t.Fatal("species table empty")
	}
}

func TestGenerateLabelsAreSelfConsistent(t *testing.T) {
	ds := genSmall(t, "Cu", 4)
	spec, _ := md.GetSystem("Cu")
	_, pot := spec.Build(1)
	for k, snap := range ds.Snapshots {
		sys := &md.System{Box: snap.Box, Pos: snap.Pos, Types: snap.Types, Species: ds.Species}
		e, f := md.ComputeAll(pot, sys)
		if math.Abs(e-snap.Energy) > 1e-9*(1+math.Abs(e)) {
			t.Fatalf("snapshot %d: stored E %v, recomputed %v", k, snap.Energy, e)
		}
		for i := range f {
			if math.Abs(f[i]-snap.Forces[i]) > 1e-9 {
				t.Fatalf("snapshot %d: force %d mismatch", k, i)
			}
		}
	}
}

func TestGenerateCoversAllTemperatures(t *testing.T) {
	ds := genSmall(t, "Al", 8) // Al has 4 temperatures
	seen := map[float64]int{}
	for _, s := range ds.Snapshots {
		seen[s.Temperature]++
	}
	if len(seen) != 4 {
		t.Fatalf("covered %d temperatures, want 4 (%v)", len(seen), seen)
	}
}

func TestGenerateDiverseConfigurations(t *testing.T) {
	ds := genSmall(t, "Cu", 6)
	// successive decorrelated snapshots must differ
	a, b := ds.Snapshots[0], ds.Snapshots[1]
	diff := 0.0
	for i := range a.Pos {
		diff += math.Abs(a.Pos[i] - b.Pos[i])
	}
	if diff < 1e-3 {
		t.Fatalf("snapshots nearly identical (total |Δx| = %g)", diff)
	}
	// energies must vary across the set
	emin, emax := math.Inf(1), math.Inf(-1)
	for _, s := range ds.Snapshots {
		emin = math.Min(emin, s.Energy)
		emax = math.Max(emax, s.Energy)
	}
	if emax-emin < 1e-6 {
		t.Fatal("all snapshot energies identical")
	}
}

func TestGenerateUnknownSystem(t *testing.T) {
	if _, err := Generate("NotASystem", GenOptions{Snapshots: 1}); err == nil {
		t.Fatal("expected error")
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	ds := genSmall(t, "Cu", 10)
	train, test := ds.Split(0.3, 42)
	if train.Len()+test.Len() != ds.Len() {
		t.Fatalf("split sizes %d+%d != %d", train.Len(), test.Len(), ds.Len())
	}
	if test.Len() != 3 {
		t.Fatalf("test size = %d want 3", test.Len())
	}
	// determinism
	tr2, te2 := ds.Split(0.3, 42)
	if tr2.Len() != train.Len() || te2.Len() != test.Len() {
		t.Fatal("split not deterministic")
	}
	if tr2.Snapshots[0].Energy != train.Snapshots[0].Energy {
		t.Fatal("split order not deterministic")
	}
}

func TestSplitTinyDatasetStillYieldsTest(t *testing.T) {
	ds := genSmall(t, "Cu", 3)
	_, test := ds.Split(0.1, 1)
	if test.Len() != 1 {
		t.Fatalf("test len = %d want 1", test.Len())
	}
}

func TestBatchesCoverAllIndicesOnce(t *testing.T) {
	ds := genSmall(t, "Cu", 10)
	rng := rand.New(rand.NewSource(3))
	batches := ds.Batches(4, rng)
	if len(batches) != 3 {
		t.Fatalf("got %d batches, want 3", len(batches))
	}
	if len(batches[2]) != 2 {
		t.Fatalf("last batch len = %d want 2", len(batches[2]))
	}
	seen := map[int]bool{}
	for _, b := range batches {
		for _, i := range b {
			if seen[i] {
				t.Fatalf("index %d appears twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("covered %d indices, want 10", len(seen))
	}
}

func TestSubset(t *testing.T) {
	ds := genSmall(t, "Cu", 6)
	sub := ds.Subset(4)
	if sub.Len() != 4 {
		t.Fatalf("subset len %d", sub.Len())
	}
	if big := ds.Subset(100); big.Len() != 6 {
		t.Fatalf("over-subset len %d", big.Len())
	}
}

func TestEnergyStats(t *testing.T) {
	ds := genSmall(t, "Cu", 8)
	mean, std := ds.EnergyStats()
	n := float64(ds.Snapshots[0].NumAtoms())
	if mean > 0 || mean < -10 {
		t.Fatalf("per-atom energy mean %v implausible for Morse Cu", mean)
	}
	if std <= 0 {
		t.Fatalf("std = %v", std)
	}
	_ = n
	empty := &Dataset{}
	m, s := empty.EnergyStats()
	if m != 0 || s != 1 {
		t.Fatalf("empty stats = %v,%v", m, s)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := genSmall(t, "NaCl", 4)
	path := filepath.Join(t.TempDir(), "nacl.gob")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() || got.System != ds.System {
		t.Fatalf("round trip lost data: %d/%s", got.Len(), got.System)
	}
	for i := range ds.Snapshots {
		if got.Snapshots[i].Energy != ds.Snapshots[i].Energy {
			t.Fatal("energies differ after round trip")
		}
	}
	if len(got.Species) != len(ds.Species) || got.Species[0].Name != ds.Species[0].Name {
		t.Fatal("species table lost")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestGenerateTinyCells(t *testing.T) {
	ds, err := Generate("Cu", GenOptions{Snapshots: 4, SampleEvery: 3, EquilSteps: 10, Tiny: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.Snapshots[0].NumAtoms(); got != 32 {
		t.Fatalf("tiny Cu has %d atoms, want 32", got)
	}
}
