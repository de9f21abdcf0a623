package pshard

import (
	"fmt"
	"math"
	"sort"

	"fekf/internal/device"
	"fekf/internal/optimize"
)

// ShardCheckpoint is one owner's slab: rows [RowLo,RowHi) of block Block,
// flattened row-major ((RowHi−RowLo)·n values).  Each slab appears exactly
// once in a checkpoint — saved by its owner — so the sharded P is stored
// once, never per rank.
type ShardCheckpoint struct {
	Block        int
	RowLo, RowHi int
	Rows         []float64
}

// Checkpoint is the serializable state of a sharded filter: the shared
// scalar state plus every rank's slabs.  Restoring under a different
// assignment (more ranks, fewer ranks, different owners) is supported —
// NewStateFrom reassembles each target slab row-by-row from whichever
// source slab holds it — which is also how kill/revive and autoscaling
// repartition in memory.
type Checkpoint struct {
	Cfg     optimize.KalmanConfig
	Lambda  float64
	Updates int
	Sizes   []int // per-block dimensions, for structural validation
	Shards  []ShardCheckpoint
}

// BuildCheckpoint gathers the live states (one per rank, any order) into
// one checkpoint, deep-copying the slabs.  The ranks' replicated scalar
// state must agree — a mismatch means the lockstep invariant was already
// broken and is reported as an error rather than silently picking one.
func BuildCheckpoint(states []*optimize.KalmanState) (*Checkpoint, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("pshard: checkpoint of zero states")
	}
	ref := states[0]
	ck := &Checkpoint{
		Cfg:     ref.Cfg,
		Lambda:  ref.Lambda,
		Updates: ref.Updates,
		Sizes:   optimize.BlockSizes(ref.Blocks),
	}
	for i, st := range states {
		if st.Draining() {
			return nil, fmt.Errorf("pshard: checkpoint while a drain is in flight")
		}
		if st.Lambda != ref.Lambda || st.Updates != ref.Updates {
			return nil, fmt.Errorf("pshard: state %d scalar state diverged (λ %v vs %v, updates %d vs %d)",
				i, st.Lambda, ref.Lambda, st.Updates, ref.Updates)
		}
		for si, sh := range st.Slabs {
			rows := append([]float64(nil), st.P[si].Data...)
			ck.Shards = append(ck.Shards, ShardCheckpoint{
				Block: sh.Block, RowLo: sh.RowLo, RowHi: sh.RowHi, Rows: rows,
			})
		}
	}
	sort.Slice(ck.Shards, func(i, j int) bool {
		if ck.Shards[i].Block != ck.Shards[j].Block {
			return ck.Shards[i].Block < ck.Shards[j].Block
		}
		return ck.Shards[i].RowLo < ck.Shards[j].RowLo
	})
	return ck, nil
}

// NewStateFrom restores rank's share of a checkpointed filter under
// assign, which need not match the assignment the checkpoint was written
// under: every target row is copied from the source slab that holds it.
// Shard boundaries may differ arbitrarily as long as the block structure
// matches.
func NewStateFrom(ck *Checkpoint, assign Assignment, rank int, dev *device.Device) (*optimize.KalmanState, error) {
	if len(assign.Blocks) != len(ck.Sizes) {
		return nil, fmt.Errorf("pshard: checkpoint has %d blocks, assignment %d",
			len(ck.Sizes), len(assign.Blocks))
	}
	for i, b := range assign.Blocks {
		if b.Size() != ck.Sizes[i] {
			return nil, fmt.Errorf("pshard: block %d is %d params, checkpoint has %d",
				i, b.Size(), ck.Sizes[i])
		}
	}
	byBlock, err := ck.slabsByBlock()
	if err != nil {
		return nil, err
	}

	st := NewState(ck.Cfg, assign, rank, dev)
	st.Lambda = ck.Lambda
	st.Updates = ck.Updates
	for si, sh := range st.Slabs {
		n := assign.Blocks[sh.Block].Size()
		slab := st.P[si]
		for r := 0; r < sh.Rows(); r++ {
			row := sh.RowLo + r
			src := sourceRow(byBlock[sh.Block], row)
			if src == nil {
				st.Free()
				return nil, fmt.Errorf("pshard: checkpoint missing block %d row %d", sh.Block, row)
			}
			off := (row - src.RowLo) * n
			copy(slab.Data[r*n:(r+1)*n], src.Rows[off:off+n])
		}
	}
	return st, nil
}

// slabsByBlock validates the shard geometry and indexes the source slabs
// per block, sorted by RowLo, for row lookup.
func (ck *Checkpoint) slabsByBlock() ([][]ShardCheckpoint, error) {
	byBlock := make([][]ShardCheckpoint, len(ck.Sizes))
	for _, s := range ck.Shards {
		if s.Block < 0 || s.Block >= len(ck.Sizes) {
			return nil, fmt.Errorf("pshard: checkpoint shard block %d out of range", s.Block)
		}
		n := ck.Sizes[s.Block]
		// len(Rows) is compared by division: RowCount()·n can overflow.
		if s.RowLo < 0 || s.RowHi > n || s.RowLo >= s.RowHi || len(s.Rows)%n != 0 || len(s.Rows)/n != s.RowCount() {
			return nil, fmt.Errorf("pshard: checkpoint shard block %d rows [%d,%d) len %d malformed",
				s.Block, s.RowLo, s.RowHi, len(s.Rows))
		}
		byBlock[s.Block] = append(byBlock[s.Block], s)
	}
	for b := range byBlock {
		sort.Slice(byBlock[b], func(i, j int) bool { return byBlock[b][i].RowLo < byBlock[b][j].RowLo })
	}
	return byBlock, nil
}

// Validate checks a decoded checkpoint before it is cut into slabs: the
// shard geometry, and that every block's P is bitwise symmetric across
// slab boundaries.  The row-walk drain (tensor.PUpdateFusedSlab) relies
// on that symmetry and does not restore it.  The in-memory repartition of
// kill, revive and autoscale skips this check: its slabs come from live
// states, which keep P symmetric.
func (ck *Checkpoint) Validate() error {
	byBlock, err := ck.slabsByBlock()
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
					if m == nil {
						continue // a missing row is NewStateFrom's error
					}
					mirror := m.Rows[(j-m.RowLo)*n+i]
					if math.Float64bits(row[j]) != math.Float64bits(mirror) {
						return fmt.Errorf("pshard: checkpoint block %d is not symmetric: P[%d][%d] = %v, P[%d][%d] = %v",
							b, i, j, row[j], j, i, mirror)
					}
				}
			}
		}
	}
	return nil
}

// RowCount returns the slab's row count (named to avoid colliding with
// the Rows data field).
func (s ShardCheckpoint) RowCount() int { return s.RowHi - s.RowLo }

// sourceRow finds the slab (sorted by RowLo) containing the given row.
func sourceRow(slabs []ShardCheckpoint, row int) *ShardCheckpoint {
	i := sort.Search(len(slabs), func(i int) bool { return slabs[i].RowHi > row })
	if i < len(slabs) && slabs[i].RowLo <= row {
		return &slabs[i]
	}
	return nil
}
