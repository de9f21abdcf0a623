package fleet

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"fekf/internal/cluster"
	"fekf/internal/optimize"
	"fekf/internal/pshard"
)

// PShardStats is the sharded-covariance row of the fleet stats (served at
// /v1/stats as "pshard"): the current partition geometry and its modeled
// memory and wire footprint.  Updated by the conductor whenever the
// assignment changes; read from any goroutine through an atomic pointer.
type PShardStats struct {
	Ranks  int `json:"ranks"`
	Blocks int `json:"blocks"`
	// RankReplicaIDs maps each rank of the current assignment to the
	// replica occupying it — the key for joining the per-rank arrays below
	// onto the "replica" stats rows after kills shrink the live set.
	RankReplicaIDs []int `json:"rank_replica_ids"`
	ShardsPerRank  []int `json:"shards_per_rank"`
	// ResidentBytesPerRank is each rank's owned P slab bytes — the same
	// numbers the fekf_p_resident_bytes gauge exports per rank.  Summed
	// over ranks it equals TotalBytes, the unsharded single-host footprint.
	ResidentBytesPerRank []int64 `json:"resident_bytes_per_rank"`
	TotalBytes           int64   `json:"total_bytes"`
	ImbalanceRatio       float64 `json:"imbalance_ratio"`
	// ExchangeBytesPerStep is the modeled wire payload of the P·g exchange
	// collectives of one lockstep step: (1 energy + ForceGroups force
	// updates) × one full parameter vector each.
	ExchangeBytesPerStep int64 `json:"exchange_bytes_per_step"`
}

// shardedP splits P by rows across the live ranks (internal/pshard): each
// live replica's Kalman state owns a slab share, the P·g fragments are
// exchanged over the ring, and the scalar filter state (λ, update count) is
// replicated; the replicas' own filters hold no Kalman state.  Membership
// changes retile the slabs lazily, when the ring re-forms (settle).
// Conductor-owned except the stats mirror.
type shardedP struct {
	reps    []*replica
	blocks  []optimize.Block
	states  []*optimize.KalmanState // per slot; nil for slots holding no slabs
	assign  pshard.Assignment
	segs    []cluster.Segment // assign's exchange table
	liveIDs []int             // the live set assign was built for; rank k is liveIDs[k]
	stats   atomic.Pointer[PShardStats]
}

func (s *shardedP) over(id int, ring *cluster.Ring) optimize.Covariance {
	return pshard.Over(s.states[id], slices.Index(s.liveIDs, id), s.segs, ring)
}

// held returns the shard states the given slots hold, skipping empty ones.
func (s *shardedP) held(ids []int) []*optimize.KalmanState {
	var out []*optimize.KalmanState
	for _, id := range ids {
		if st := s.states[id]; st != nil {
			out = append(out, st)
		}
	}
	return out
}

// settle repartitions when the live set changed since the installed
// assignment: the old owners' slabs — a gracefully killed victim's
// included, which the conductor still holds — are gathered into an
// in-memory sharded checkpoint and retiled onto the new rank count, so
// kill, revive and autoscale transitions preserve every P row bitwise.
func (s *shardedP) settle(live []int) error {
	if slices.Equal(s.liveIDs, live) {
		return nil
	}
	old := s.held(s.liveIDs)
	if len(old) == 0 {
		return s.retile(nil, live)
	}
	ck, err := pshard.BuildCheckpoint(old)
	if err != nil {
		return fmt.Errorf("fleet: gather shard checkpoint: %w", err)
	}
	return s.retile(ck, live)
}

// retile restores a sharded checkpoint onto live — or, with a nil ck,
// restarts the filter there from the identity prior: the new states are
// built first, so a failure leaves the old partition intact; then the old
// slabs are freed and the new assignment installed.
func (s *shardedP) retile(ck *pshard.Checkpoint, live []int) error {
	assign := pshard.Partition(s.blocks, len(live))
	next := make([]*optimize.KalmanState, len(live))
	for k, id := range live {
		if ck == nil {
			next[k] = pshard.NewState(s.reps[live[0]].opt.KCfg, assign, k, s.reps[id].dev)
			continue
		}
		st, err := pshard.NewStateFrom(ck, assign, k, s.reps[id].dev)
		if err != nil {
			for _, st := range next[:k] {
				st.Free()
			}
			return fmt.Errorf("fleet: restore shards: %w", err)
		}
		next[k] = st
	}
	s.drop()
	for k, id := range live {
		s.states[id] = next[k]
	}
	s.install(assign, live)
	return nil
}

// drop frees every slot's slabs.
func (s *shardedP) drop() {
	for id, st := range s.states {
		if st != nil {
			st.Free()
			s.states[id] = nil
		}
	}
}

// install records a newly applied partition: the rank↔replica map and the
// stats mirror.
func (s *shardedP) install(assign pshard.Assignment, live []int) {
	s.assign = assign
	s.segs = assign.Segments()
	s.liveIDs = append(s.liveIDs[:0], live...)
	ps := &PShardStats{
		Ranks:                assign.Ranks,
		Blocks:               len(assign.Blocks),
		RankReplicaIDs:       append([]int(nil), live...),
		TotalBytes:           assign.TotalBytes(),
		ImbalanceRatio:       assign.ImbalanceRatio(),
		ExchangeBytesPerStep: int64(1+s.reps[0].opt.ForceGroups) * assign.ExchangeBytesPerCollective(),
	}
	for r := 0; r < assign.Ranks; r++ {
		ps.ShardsPerRank = append(ps.ShardsPerRank, len(assign.Owners[r]))
		ps.ResidentBytesPerRank = append(ps.ResidentBytesPerRank, assign.RankBytes(r))
	}
	s.stats.Store(ps)
}

// recover rebuilds the slabs after a hard mid-step transport failure.
// Unlike a graceful kill, the dead ranks' slabs are treated as lost, and
// the survivors may have diverged scalar state (some ranks applied the
// final measurement before the ring broke, others aborted).  The first
// holding survivor's (λ, updates) is the reference epoch; slabs of
// survivors at that epoch are kept, and every row without a surviving
// owner is reset to the identity prior, decorrelated from the kept rows —
// the filter restarts its covariance for those rows while the reconciled
// weights carry on.
func (s *shardedP) recover(survivors []int) error {
	held := s.held(survivors)
	if len(held) == 0 {
		return s.retile(nil, survivors)
	}
	ref := held[0]
	var keep []*optimize.KalmanState
	for _, st := range held {
		if math.Float64bits(st.Lambda) == math.Float64bits(ref.Lambda) && st.Updates == ref.Updates {
			keep = append(keep, st)
		}
	}
	ck, err := pshard.BuildCheckpoint(keep)
	if err != nil {
		return fmt.Errorf("fleet: recover shard checkpoint: %w", err)
	}
	resetLostRows(ck, s.blocks)
	return s.retile(ck, survivors)
}

// resetLostRows resets every block row the checkpoint does not cover — and
// its column — to the identity prior, so NewStateFrom can retile the full
// covariance after shard loss.  Zeroing the lost columns of the kept rows
// drops the correlations the lost rows carried and keeps P symmetric:
// with kept rows K and lost rows L it becomes diag(P_KK, I), positive-
// definite because P_KK is a principal submatrix of a positive-definite P.
func resetLostRows(ck *pshard.Checkpoint, blocks []optimize.Block) {
	covered := make([][]bool, len(blocks))
	for i, b := range blocks {
		covered[i] = make([]bool, b.Size())
	}
	for _, s := range ck.Shards {
		for i := s.RowLo; i < s.RowHi; i++ {
			covered[s.Block][i] = true
		}
	}
	for _, s := range ck.Shards {
		rows, n := covered[s.Block], blocks[s.Block].Size()
		for i := range s.Rows {
			if !rows[i%n] {
				s.Rows[i] = 0
			}
		}
	}
	for bi, rows := range covered {
		n := blocks[bi].Size()
		for lo := 0; lo < n; {
			if rows[lo] {
				lo++
				continue
			}
			hi := lo
			for hi < n && !rows[hi] {
				hi++
			}
			data := make([]float64, (hi-lo)*n)
			for r := lo; r < hi; r++ {
				data[(r-lo)*n+r] = 1
			}
			ck.Shards = append(ck.Shards, pshard.ShardCheckpoint{Block: bi, RowLo: lo, RowHi: hi, Rows: data})
			lo = hi
		}
	}
}

// diag is the diagonal of replica id's own P rows, zeros elsewhere — a
// documented approximation for the gate: scores touching unowned rows read
// 0, so the partial gate is more permissive than the full diagonal, never
// stricter.
func (s *shardedP) diag(id int) []float64 {
	if st := s.states[id]; st != nil {
		return st.PDiagonal()
	}
	return nil
}

func (s *shardedP) lambda(id int) (float64, bool) {
	if st := s.states[id]; st != nil {
		return st.Lambda, true
	}
	return 0, false
}

// drift is the sharded analogue of the P-drift invariant gauge: the slabs
// are disjoint, so P cannot be compared rank-to-rank, but the scalar filter
// state (λ, update count) is replicated on every rank and must stay
// bit-identical under the lockstep schedule.  An update-count mismatch or a
// missing state reports +Inf.
func (s *shardedP) drift(live []int) float64 {
	var ref *optimize.KalmanState
	d := 0.0
	for _, id := range live {
		st := s.states[id]
		if st == nil {
			return math.Inf(1)
		}
		if ref == nil {
			ref = st
			continue
		}
		if st.Updates != ref.Updates {
			return math.Inf(1)
		}
		if dd := math.Abs(st.Lambda - ref.Lambda); dd > d {
			d = dd
		}
	}
	return d
}

func (s *shardedP) resident(id int) int64 {
	if st := s.states[id]; st != nil {
		return st.PBytes()
	}
	return 0
}

// save stores every P row slab exactly once, by its owner rank.
func (s *shardedP) save(ck *Checkpoint) error {
	pck, err := pshard.BuildCheckpoint(s.held(s.liveIDs))
	if err != nil {
		return fmt.Errorf("fleet: shard checkpoint: %w", err)
	}
	ck.PShard, ck.PCk = true, pck
	return nil
}

func (s *shardedP) load(ck *Checkpoint, live []int) error {
	if ck == nil {
		return s.retile(nil, live)
	}
	if !ck.PShard || ck.PCk == nil {
		return fmt.Errorf("fleet: checkpoint has no sharded covariance slabs")
	}
	return s.retile(ck.PCk, live)
}

// reassign is the shard-transfer cost of the autoscaler's candidate
// transitions: growing or shrinking the fleet repartitions P, and the
// controller charges the modeled transfer time against its cooldowns.
func (s *shardedP) reassign(live []int) (up, down int64) {
	if len(live) < len(s.states) && len(live) > 0 {
		up = pshard.ReassignBytes(s.assign, pshard.Partition(s.blocks, len(live)+1))
	}
	if len(live) > 1 {
		down = pshard.ReassignBytes(s.assign, pshard.Partition(s.blocks, len(live)-1))
	}
	return up, down
}

func (s *shardedP) row() *PShardStats { return s.stats.Load() }
