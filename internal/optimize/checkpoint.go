package optimize

import (
	"fmt"
	"math"
	"sort"

	"fekf/internal/deepmd"
	"fekf/internal/device"
)

// KalmanCheckpoint is the serializable snapshot of a KalmanState: the
// filter configuration, the position of the λ memory-factor schedule, the
// measurement-update counter and every error-covariance block, row-major.
// Restoring it resumes the filter bitwise — the next measurement update
// computes exactly the values the uninterrupted run would have.
type KalmanCheckpoint struct {
	Cfg     KalmanConfig
	Lambda  float64
	Updates int
	Sizes   []int       // per-block parameter counts, for structural validation
	P       [][]float64 // per-block covariance values, row-major
}

// Checkpoint deep-copies a full filter state; a state that owns only some
// rows is gathered by GatherSlabs instead.  It must not be called while a
// covariance drain is in flight (between UpdateSplit and its drain); the
// optimizers' Step never returns in that window, so any caller that
// serializes with Step is safe.
func (ks *KalmanState) Checkpoint() *KalmanCheckpoint {
	if ks.draining {
		panic("optimize: Checkpoint during an in-flight covariance drain")
	}
	if !ks.OwnsAll() {
		panic("optimize: Checkpoint of a state that owns only some rows of P")
	}
	ck := &KalmanCheckpoint{Cfg: ks.Cfg, Lambda: ks.Lambda, Updates: ks.Updates}
	for i, b := range ks.Blocks {
		ck.Sizes = append(ck.Sizes, b.Size())
		ck.P = append(ck.P, append([]float64(nil), ks.P[i].Data...))
	}
	return ck
}

// Slabs views ck as the slab checkpoint with one whole slab per block,
// sharing its P values: a full state is validated and restored through the
// same path as a sharded one.
func (ck *KalmanCheckpoint) Slabs() *SlabCheckpoint {
	sc := &SlabCheckpoint{Cfg: ck.Cfg, Lambda: ck.Lambda, Updates: ck.Updates, Sizes: ck.Sizes}
	for b, p := range ck.P {
		n := 0
		if b < len(ck.Sizes) {
			n = ck.Sizes[b]
		}
		sc.Shards = append(sc.Shards, SlabRows{Block: b, RowHi: n, Rows: p})
	}
	return sc
}

// RestoreKalmanState rebuilds a full KalmanState on dev from a checkpoint,
// validating it as a slab checkpoint (SlabCheckpoint.Validate) and against
// the block structure derived from layerSizes.  Validation runs before
// anything is allocated on dev, so a rejected checkpoint leaves the
// device's live memory unchanged.
func RestoreKalmanState(ck *KalmanCheckpoint, layerSizes []int, dev *device.Device) (*KalmanState, error) {
	sc := ck.Slabs()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	blocks := SplitBlocks(layerSizes, ck.Cfg.BlockSize)
	return NewStateFrom(sc, blocks, WholeSlabs(blocks), dev)
}

// SlabRows is one slab of a SlabCheckpoint: rows [RowLo,RowHi) of block
// Block, flattened row-major ((RowHi−RowLo)·n values).
type SlabRows struct {
	Block        int
	RowLo, RowHi int
	Rows         []float64
}

// RowCount returns the slab's row count (named to avoid colliding with
// the Rows data field).
func (s SlabRows) RowCount() int { return s.RowHi - s.RowLo }

// SlabCheckpoint is the serializable form of P as row slabs: the filter
// configuration and schedule position plus slabs that hold every row of
// every block.  It restores under any slab layout — NewStateFrom copies
// each target row from whichever slab holds it — which is how a sharded
// P is saved once (each slab by its owner), how the fleet moves P between
// ranks at a membership change, and, through KalmanCheckpoint.Slabs, how
// a full state is restored.
type SlabCheckpoint struct {
	Cfg     KalmanConfig
	Lambda  float64
	Updates int
	Sizes   []int // per-block dimensions, for structural validation
	Shards  []SlabRows
}

// GatherSlabs gathers states into one slab checkpoint, in their order,
// copying each row once: a state that owns every row is gathered alone,
// so a replicated P is copied from its first holder, and disjoint slabs
// are taken as they are.  The states' scalar state must agree — a
// mismatch means the lockstep invariant was already broken and is
// reported rather than silently picking one.
func GatherSlabs(states []*KalmanState) (*SlabCheckpoint, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("optimize: gather of zero states")
	}
	ref := states[0]
	for i, st := range states {
		if st.Draining() {
			return nil, fmt.Errorf("optimize: gather while a drain is in flight")
		}
		if st.Lambda != ref.Lambda || st.Updates != ref.Updates {
			return nil, fmt.Errorf("optimize: state %d scalar state diverged (λ %v vs %v, updates %d vs %d)",
				i, st.Lambda, ref.Lambda, st.Updates, ref.Updates)
		}
	}
	for _, st := range states {
		if st.OwnsAll() {
			states = []*KalmanState{st}
			break
		}
	}
	ck := &SlabCheckpoint{Cfg: ref.Cfg, Lambda: ref.Lambda, Updates: ref.Updates, Sizes: BlockSizes(ref.Blocks)}
	for _, st := range states {
		for si, sh := range st.Slabs {
			ck.Shards = append(ck.Shards, SlabRows{Block: sh.Block, RowLo: sh.RowLo, RowHi: sh.RowHi,
				Rows: append([]float64(nil), st.P[si].Data...)})
		}
	}
	return ck, nil
}

// NewStateFrom restores the given slabs of blocks from ck — a layout that
// need not match the one ck was written under: every target row is copied
// from the source slab that holds it.  ck must fit blocks (Fits); that is
// checked before anything is allocated.  Symmetry is not: a ck from
// outside the program must pass Validate first.
func NewStateFrom(ck *SlabCheckpoint, blocks []Block, slabs []Slab, dev *device.Device) (*KalmanState, error) {
	if err := ck.Fits(blocks); err != nil {
		return nil, err
	}
	byBlock, _ := ck.tiles()
	st := NewSlabState(ck.Cfg, blocks, slabs, dev)
	st.Lambda = ck.Lambda
	st.Updates = ck.Updates
	for si, sh := range st.Slabs {
		n := blocks[sh.Block].Size()
		for r := 0; r < sh.Rows(); r++ {
			row := sh.RowLo + r
			src := sourceRow(byBlock[sh.Block], row)
			if src == nil {
				st.Free()
				return nil, fmt.Errorf("optimize: block %d row %d is outside the checkpoint", sh.Block, row)
			}
			off := (row - src.RowLo) * n
			copy(st.P[si].Data[r*n:(r+1)*n], src.Rows[off:off+n])
		}
	}
	return st, nil
}

// Fits checks ck against blocks: the same block structure, and slabs that
// tile every block exactly.  NewStateFrom cannot fail on a ck that fits.
func (ck *SlabCheckpoint) Fits(blocks []Block) error {
	if len(blocks) != len(ck.Sizes) {
		return fmt.Errorf("optimize: checkpoint has %d blocks, model wants %d", len(ck.Sizes), len(blocks))
	}
	for i, b := range blocks {
		if b.Size() != ck.Sizes[i] {
			return fmt.Errorf("optimize: checkpoint block %d has %d params, model wants %d", i, ck.Sizes[i], b.Size())
		}
	}
	_, err := ck.tiles()
	return err
}

// tiles checks the slab geometry and indexes the slabs per block, sorted
// by RowLo: each block's slabs must tile it exactly, every row held once,
// which is what every gather writes and what row lookup (sourceRow)
// relies on.
func (ck *SlabCheckpoint) tiles() ([][]SlabRows, error) {
	byBlock := make([][]SlabRows, len(ck.Sizes))
	for _, s := range ck.Shards {
		if s.Block < 0 || s.Block >= len(ck.Sizes) {
			return nil, fmt.Errorf("optimize: checkpoint slab block %d out of range", s.Block)
		}
		n := ck.Sizes[s.Block]
		// len(Rows) is compared by division: RowCount()·n can overflow.
		if s.RowLo < 0 || s.RowHi > n || s.RowLo >= s.RowHi || len(s.Rows)%n != 0 || len(s.Rows)/n != s.RowCount() {
			return nil, fmt.Errorf("optimize: checkpoint block %d slab rows [%d,%d) holds %d values: malformed",
				s.Block, s.RowLo, s.RowHi, len(s.Rows))
		}
		byBlock[s.Block] = append(byBlock[s.Block], s)
	}
	for b, slabs := range byBlock {
		sort.Slice(slabs, func(i, j int) bool { return slabs[i].RowLo < slabs[j].RowLo })
		next := 0
		for _, s := range slabs {
			if s.RowLo != next {
				return nil, fmt.Errorf("optimize: checkpoint block %d slab rows [%d,%d) do not follow row %d",
					b, s.RowLo, s.RowHi, next)
			}
			next = s.RowHi
		}
		if next < ck.Sizes[b] {
			return nil, fmt.Errorf("optimize: checkpoint missing block %d row %d", b, next)
		}
	}
	return byBlock, nil
}

// Validate checks a checkpoint from outside the program before it is cut
// into slabs: the slab geometry, that the slabs tile every block exactly,
// and that every block's P is bitwise symmetric across slab boundaries.
// The row-walk drain (tensor.PUpdateFusedSlab) relies on that symmetry and
// does not restore it, so an asymmetric P must not enter a filter.
func (ck *SlabCheckpoint) Validate() error {
	byBlock, err := ck.tiles()
	if err != nil {
		return err
	}
	for b, slabs := range byBlock {
		n := ck.Sizes[b]
		for _, s := range slabs {
			for i := s.RowLo; i < s.RowHi; i++ {
				row := s.Rows[(i-s.RowLo)*n : (i-s.RowLo+1)*n]
				for j := i + 1; j < n; j++ {
					m := sourceRow(slabs, j)
					mirror := m.Rows[(j-m.RowLo)*n+i]
					if math.Float64bits(row[j]) != math.Float64bits(mirror) {
						return fmt.Errorf("optimize: checkpoint block %d is not symmetric: P[%d][%d] = %v, P[%d][%d] = %v",
							b, i, j, row[j], j, i, mirror)
					}
				}
			}
		}
	}
	return nil
}

// sourceRow finds the slab holding the given row among slabs that tile a
// block in RowLo order; nil when no slab does.
func sourceRow(slabs []SlabRows, row int) *SlabRows {
	i := sort.Search(len(slabs), func(i int) bool { return slabs[i].RowHi > row })
	if i < len(slabs) && slabs[i].RowLo <= row {
		return &slabs[i]
	}
	return nil
}

// PDiagonal copies the diagonal of the block-diagonal P into a vector
// aligned with the flat parameter ordering.  The diagonal is the filter's
// per-parameter error variance — the uncertainty signal ALKPU-style frame
// gating scores streamed configurations against.  A state that owns only
// some rows fills those and leaves the others 0.
func (ks *KalmanState) PDiagonal() []float64 {
	if len(ks.Blocks) == 0 {
		return nil
	}
	out := make([]float64, len(ks.pg))
	for si, s := range ks.Slabs {
		lo := ks.Blocks[s.Block].Lo
		for r := 0; r < s.Rows(); r++ {
			out[lo+s.RowLo+r] = ks.P[si].At(r, s.RowLo+r)
		}
	}
	return out
}

// PDrift returns the maximum absolute element-wise difference between this
// filter's covariance blocks and other's — the replicated-fleet invariant
// checked after every distributed step (zero when the funnel-aggregated
// no-P-communication schedule holds).  A structural mismatch (different
// block count or shapes, or a nil other) reports +Inf.  Neither state may
// have a covariance drain in flight.
func (ks *KalmanState) PDrift(other *KalmanState) float64 {
	if other == nil || len(ks.P) != len(other.P) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range ks.P {
		a, b := ks.P[i].Data, other.P[i].Data
		if len(a) != len(b) {
			return math.Inf(1)
		}
		for j := range a {
			if d := math.Abs(a[j] - b[j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// FEKFCheckpoint is the serializable state of a FEKF optimizer: the
// hyper-parameters that shape the update schedule plus the Kalman state
// (nil when no step has been taken yet).  Pipeline mode is deliberately
// absent — it is bitwise neutral, so the restored optimizer pipelines, as
// a new one does.
type FEKFCheckpoint struct {
	Name        string
	Factor      QuasiLRFactor
	ForceGroups int
	EnergyDiv   TrustDiv
	ForceDiv    TrustDiv
	KCfg        KalmanConfig
	Kalman      *KalmanCheckpoint
}

// Checkpoint captures the optimizer for a later bitwise resume.  Safe
// whenever Step is not executing.
func (f *FEKF) Checkpoint() *FEKFCheckpoint {
	ck := &FEKFCheckpoint{
		Name:        f.name,
		Factor:      f.Factor,
		ForceGroups: f.ForceGroups,
		EnergyDiv:   f.EnergyDiv,
		ForceDiv:    f.ForceDiv,
		KCfg:        f.KCfg,
	}
	if f.ks != nil {
		ck.Kalman = f.ks.Checkpoint()
	}
	return ck
}

// RestoreFEKF reconstructs a FEKF from a checkpoint for model m: the λ
// schedule, update counter and every P block resume exactly where the
// checkpointed optimizer stopped.  The Kalman block structure is
// re-derived from m's layer sizes and validated against the checkpoint.
func RestoreFEKF(ck *FEKFCheckpoint, m *deepmd.Model) (*FEKF, error) {
	f := &FEKF{
		KCfg:        ck.KCfg,
		Factor:      ck.Factor,
		ForceGroups: ck.ForceGroups,
		EnergyDiv:   ck.EnergyDiv,
		ForceDiv:    ck.ForceDiv,
		Pipeline:    true,
		name:        ck.Name,
	}
	if f.name == "" {
		f.name = "FEKF"
	}
	if f.ForceGroups < 1 {
		f.ForceGroups = 4
	}
	if ck.Kalman != nil {
		ks, err := RestoreKalmanState(ck.Kalman, m.Params.LayerSizes(), m.Dev)
		if err != nil {
			return nil, err
		}
		f.ks = ks
	}
	return f, nil
}

// PDiagonal returns the current P diagonal aligned with the flat parameter
// vector, or nil before the first step (no curvature information yet).
func (f *FEKF) PDiagonal() []float64 {
	if f.ks == nil {
		return nil
	}
	return f.ks.PDiagonal()
}

// Lambda returns the current memory factor λ: the schedule position after
// the updates taken so far, or the configured λ₀ before the first step.
func (f *FEKF) Lambda() float64 {
	if f.ks == nil {
		return f.KCfg.Lambda0
	}
	return f.ks.Lambda
}

// Updates returns the number of Kalman measurement updates applied (each
// Step performs 1 + ForceGroups of them); 0 before the first step.
func (f *FEKF) Updates() int {
	if f.ks == nil {
		return 0
	}
	return f.ks.Updates
}
