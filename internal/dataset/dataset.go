// Package dataset produces and manages the labelled training data of the
// reproduction: snapshots of atomic configurations with total energy and
// per-atom force labels, the equivalent of the paper's ab initio (PWmat)
// trajectories of Table 3.  Snapshots are sampled from Langevin MD driven
// by the classical label potentials in internal/md, mixing the
// temperatures listed in the paper for each system.
package dataset

import (
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"os"

	"fekf/internal/md"
)

// Snapshot is one labelled configuration ("image" in the paper's terms).
type Snapshot struct {
	Pos         []float64  // 3N positions, Å
	Box         [3]float64 // orthorhombic box, Å
	Types       []int      // species index per atom
	Energy      float64    // total potential energy, eV
	Forces      []float64  // 3N forces, eV/Å
	Temperature float64    // sampling temperature, K
}

// NumAtoms returns the number of atoms in the snapshot.
func (s *Snapshot) NumAtoms() int { return len(s.Types) }

// Dataset is a labelled collection of snapshots of one physical system.
type Dataset struct {
	System    string
	Species   []md.Species
	Snapshots []Snapshot
}

// Len returns the number of snapshots.
func (d *Dataset) Len() int { return len(d.Snapshots) }

// GenOptions controls trajectory sampling.
type GenOptions struct {
	// Snapshots is the total number of labelled images to produce,
	// divided evenly among the system's temperatures.
	Snapshots int
	// SampleEvery is the number of MD steps between samples (decorrelation).
	SampleEvery int
	// EquilSteps is the number of thermalization steps before sampling
	// starts at each temperature.
	EquilSteps int
	// Scale enlarges the simulation cell (1 = paper-like bulk cell).
	Scale int
	// Tiny selects the reduced 8-32 atom cells, which the single-core
	// convergence experiments use; overrides Scale.
	Tiny bool
	// Seed makes generation reproducible.
	Seed int64
}

// Generate samples a labelled dataset for the named Table 3 system.
func Generate(systemName string, opt GenOptions) (*Dataset, error) {
	spec, err := md.GetSystem(systemName)
	if err != nil {
		return nil, err
	}
	if opt.Scale < 1 {
		opt.Scale = 1
	}
	if opt.SampleEvery < 1 {
		opt.SampleEvery = 1
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	ds := &Dataset{System: spec.Name}
	perT := opt.Snapshots / len(spec.Temperatures)
	extra := opt.Snapshots - perT*len(spec.Temperatures)

	for ti, T := range spec.Temperatures {
		want := perT
		if ti < extra {
			want++
		}
		if want == 0 {
			continue
		}
		var sys *md.System
		var pot md.Potential
		if opt.Tiny {
			sys, pot = spec.TinyBuild()
		} else {
			sys, pot = spec.Build(opt.Scale)
		}
		if ds.Species == nil {
			ds.Species = sys.Species
		}
		sys.InitVelocities(T, rng)
		lg := md.NewLangevin(pot, spec.TimeStep, T, rng)
		lg.Run(sys, opt.EquilSteps, 0, nil)

		collected := 0
		lg.Run(sys, want*opt.SampleEvery, opt.SampleEvery, func(step int) {
			if collected >= want {
				return
			}
			// labels must be self-consistent: recompute E and F at the
			// exact sampled positions with a fresh full neighbor list.
			e, f := md.ComputeAll(pot, sys)
			ds.Snapshots = append(ds.Snapshots, Snapshot{
				Pos:         append([]float64(nil), sys.Pos...),
				Box:         sys.Box,
				Types:       append([]int(nil), sys.Types...),
				Energy:      e,
				Forces:      f,
				Temperature: T,
			})
			collected++
		})
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("dataset: generated no snapshots for %s", systemName)
	}
	return ds, nil
}

// Split partitions the dataset into train and test subsets with the given
// test fraction, shuffling deterministically with seed.
func (d *Dataset) Split(testFrac float64, seed int64) (train, test *Dataset) {
	idx := rand.New(rand.NewSource(seed)).Perm(d.Len())
	nTest := int(float64(d.Len()) * testFrac)
	if nTest < 1 && d.Len() > 1 && testFrac > 0 {
		nTest = 1
	}
	train = &Dataset{System: d.System, Species: d.Species}
	test = &Dataset{System: d.System, Species: d.Species}
	for k, i := range idx {
		if k < nTest {
			test.Snapshots = append(test.Snapshots, d.Snapshots[i])
		} else {
			train.Snapshots = append(train.Snapshots, d.Snapshots[i])
		}
	}
	return train, test
}

// Batches returns the snapshot indices grouped into minibatches of size bs
// after a deterministic shuffle; the final short batch is kept (dropLast
// false semantics).
func (d *Dataset) Batches(bs int, rng *rand.Rand) [][]int {
	if bs < 1 {
		bs = 1
	}
	idx := rng.Perm(d.Len())
	var out [][]int
	for lo := 0; lo < len(idx); lo += bs {
		hi := lo + bs
		if hi > len(idx) {
			hi = len(idx)
		}
		out = append(out, idx[lo:hi])
	}
	return out
}

// SampleBatch returns bs snapshot indices drawn uniformly with
// replacement; used when the requested batch exceeds the dataset (the
// paper's 512-4096 batches at this reproduction's dataset sizes).
func (d *Dataset) SampleBatch(bs int, rng *rand.Rand) []int {
	idx := make([]int, bs)
	for i := range idx {
		idx[i] = rng.Intn(d.Len())
	}
	return idx
}

// Subset returns a dataset view with the first n snapshots (or all if
// n >= Len); snapshots are shared, not copied.
func (d *Dataset) Subset(n int) *Dataset {
	if n > d.Len() {
		n = d.Len()
	}
	return &Dataset{System: d.System, Species: d.Species, Snapshots: d.Snapshots[:n]}
}

// EnergyStats returns the mean and standard deviation of per-atom energies,
// used for label normalization in training.
func (d *Dataset) EnergyStats() (mean, std float64) {
	if d.Len() == 0 {
		return 0, 1
	}
	for _, s := range d.Snapshots {
		mean += s.Energy / float64(s.NumAtoms())
	}
	mean /= float64(d.Len())
	for _, s := range d.Snapshots {
		dv := s.Energy/float64(s.NumAtoms()) - mean
		std += dv * dv
	}
	std /= float64(d.Len())
	if std > 0 {
		std = math.Sqrt(std)
	} else {
		std = 1
	}
	return mean, std
}

// Save writes the dataset to path with gob encoding.
func (d *Dataset) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(d); err != nil {
		return fmt.Errorf("dataset: encode %s: %w", path, err)
	}
	return nil
}

// Load reads a dataset written by Save.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var d Dataset
	if err := gob.NewDecoder(f).Decode(&d); err != nil {
		return nil, fmt.Errorf("dataset: decode %s: %w", path, err)
	}
	return &d, nil
}
