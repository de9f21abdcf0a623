// Package deepmd implements the Deep Potential (DeePMD) model of the
// paper: the smooth environment matrix R̃, per-neighbor-type embedding
// nets, the symmetry-preserving descriptor D = XᵀX< with X = R̃ᵀG, the
// fitting net, total energy, and atomic forces F = −∇E.
//
// Two force paths coexist, mirroring Section 3.4 of the paper: the
// framework-autograd path (baseline) and the hand-derived Eq. 4 path
// (Opt1) implemented as fused custom kernels.  Kernel fusion of the layer
// ops (Opt2) is selected through the graph's Fused flag.  All paths give
// identical values; they differ in the number of simulated kernel
// launches, which is what Figure 7(b) measures.
package deepmd

import (
	"fmt"

	"fekf/internal/md"
)

// OptLevel selects the system-optimization stage of Section 3.4.
type OptLevel int

// Optimization stages in the order of Figure 7.
const (
	// OptBaseline: unfused layer kernels, forces via generic autograd.
	OptBaseline OptLevel = iota
	// OptManualForce (Opt1): hand-derived symmetry-operator derivative
	// (Eq. 4) as fused custom kernels.
	OptManualForce
	// OptFused (Opt2): additionally fuse layer kernels (tanh(XW+b) etc).
	OptFused
	// OptAll (Opt3): additionally use the optimizer-side custom kernels
	// (fused P update, Pg caching); the model graph equals OptFused.
	OptAll
)

// String names the optimization level as in Figure 7's x-axis.
func (l OptLevel) String() string {
	switch l {
	case OptBaseline:
		return "baseline"
	case OptManualForce:
		return "opt1"
	case OptFused:
		return "opt2"
	case OptAll:
		return "opt3"
	default:
		return fmt.Sprintf("OptLevel(%d)", int(l))
	}
}

// Config describes a DeePMD network and its descriptor geometry.
type Config struct {
	// Rcs, Rc are the smooth-cutoff radii of s(r) (Å).
	Rcs, Rc float64
	// MaxNeighbors is the per-neighbor-species slot count; its sum is the
	// paper's N_m.  Neighbor lists longer than the slot count are
	// truncated to the nearest atoms; shorter ones are zero-padded.  Each
	// entry lies in [1, MaxSlotsPerSpecies].
	MaxNeighbors []int
	// M is the symmetry order (embedding output width); MSub is M< of the
	// paper ("the truncation value of the symmetry-preserving operation").
	M, MSub int
	// FitHidden is the fitting-net hidden width d.
	FitHidden int
	// NumSpecies is the number of chemical species (center types).
	NumSpecies int
	// Seed initializes the weights deterministically.
	Seed int64
}

// MaxSlotsPerSpecies bounds each MaxNeighbors entry.  It sits above any
// DeePMD-kit "sel" (a few hundred neighbors at most per species) and keeps
// a decoded config from sizing environment matrices of arbitrary length:
// BuildEnv allocates B·Na·MaxNeighbors[t] rows per species.
const MaxSlotsPerSpecies = 1024

// MaxCutoff bounds the cutoff radius Rc, in Å.  It sits above the rcut of
// every DeePMD-kit example (6–9 Å) and keeps a decoded config from setting
// the neighbor work of every BuildEnv, which grows as Rc³: one tiny-Cu
// frame at a 40 Å cutoff takes seconds and hundreds of MB.
const MaxCutoff = 12.0

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	// Written so that a NaN cutoff fails too.
	if !(0 < c.Rcs && c.Rcs < c.Rc && c.Rc <= MaxCutoff) {
		return fmt.Errorf("deepmd: cutoffs need 0 < Rcs < Rc <= %v, got Rcs=%v Rc=%v", MaxCutoff, c.Rcs, c.Rc)
	}
	if len(c.MaxNeighbors) != c.NumSpecies {
		return fmt.Errorf("deepmd: MaxNeighbors has %d entries for %d species",
			len(c.MaxNeighbors), c.NumSpecies)
	}
	for _, n := range c.MaxNeighbors {
		if n < 1 || n > MaxSlotsPerSpecies {
			return fmt.Errorf("deepmd: neighbor slot count %d outside [1, %d]", n, MaxSlotsPerSpecies)
		}
	}
	if c.M < 1 || c.MSub < 1 || c.MSub > c.M {
		return fmt.Errorf("deepmd: need 1 <= MSub <= M, got M=%d MSub=%d", c.M, c.MSub)
	}
	if c.FitHidden < 1 {
		return fmt.Errorf("deepmd: FitHidden = %d", c.FitHidden)
	}
	if c.NumSpecies < 1 {
		return fmt.Errorf("deepmd: NumSpecies = %d", c.NumSpecies)
	}
	return nil
}

// numParams returns the parameter count NewModel(c) allocates — per
// species an embedding net 1→M→M→M and a fitting net M·MSub→d→d→d→1 —
// and false past 2⁵², so a crafted config cannot overflow it: up to there
// every term is an integer below 2⁵³, which float64 holds exactly.  c must
// be valid.
func (c Config) numParams() (int, bool) {
	m, sub, d := float64(c.M), float64(c.MSub), float64(c.FitHidden)
	n := float64(c.NumSpecies) * (2*m*m + 4*m + m*sub*d + 2*d*d + 4*d + 1)
	if n > 1<<52 {
		return 0, false
	}
	return int(n), true
}

// TotalSlots returns N_m, the total per-atom neighbor slot count.
func (c Config) TotalSlots() int {
	n := 0
	for _, v := range c.MaxNeighbors {
		n += v
	}
	return n
}

// PaperConfig returns the network of the paper's experiments: embedding
// [25,25,25], fitting [400,50,50,50,1], M<=16.  For a single-species
// system this yields 26 651-parameter-scale networks (ours counts 25 201 +
// 1 350 = 26 551; the paper's 26 651 differs by a 100-parameter detail of
// their type embedding).
func PaperConfig(spec md.SystemSpec, sys *md.System) Config {
	ns := len(sys.Species)
	per := paperSlotBudget(sys, ns)
	return Config{
		Rcs: 3.5, Rc: 5.2,
		MaxNeighbors: per,
		M:            25, MSub: 16,
		FitHidden:  50,
		NumSpecies: ns,
		Seed:       1,
	}
}

// TinyConfig returns a scaled-down network used by the convergence
// experiments: the same architecture with M=8, M<=4, d=16.  On a single
// CPU core it trains orders of magnitude faster while preserving every
// algorithmic property the optimizer comparison depends on.
func TinyConfig(sys *md.System) Config {
	ns := len(sys.Species)
	return Config{
		Rcs: 3.0, Rc: 4.5,
		MaxNeighbors: tinySlotBudget(sys, ns),
		M:            8, MSub: 4,
		FitHidden:  16,
		NumSpecies: ns,
		Seed:       1,
	}
}

// paperSlotBudget estimates per-species neighbor slot counts from the
// species fractions, budgeting ~40 total slots.
func paperSlotBudget(sys *md.System, ns int) []int {
	return slotBudget(sys, ns, 40)
}

func tinySlotBudget(sys *md.System, ns int) []int {
	return slotBudget(sys, ns, 20)
}

func slotBudget(sys *md.System, ns, total int) []int {
	counts := make([]int, ns)
	for _, t := range sys.Types {
		counts[t]++
	}
	out := make([]int, ns)
	n := sys.NumAtoms()
	for i := range out {
		out[i] = total * counts[i] / n
		if out[i] < 2 {
			out[i] = 2
		}
	}
	return out
}
