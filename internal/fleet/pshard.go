package fleet

import (
	"fmt"
	"math"

	"fekf/internal/cluster"
	"fekf/internal/deepmd"
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

// covariance returns the Kalman state replica id updates in a step over
// ring: its slab share bound to the ring in pshard mode, its full P
// replica otherwise.
func (f *Fleet) covariance(id int, ring *cluster.Ring) optimize.Covariance {
	if f.cfg.PShard {
		return f.pstates[id].Over(ring)
	}
	return f.reps[id].opt.State()
}

// initShards builds the initial sharded filter during New: a fresh
// identity-P partition over the initial live set, or — when Resume carried
// a sharded checkpoint — the checkpointed slabs retiled onto it.
func (f *Fleet) initShards(m *deepmd.Model, opt *optimize.FEKF, live []int) error {
	if opt.State() != nil {
		return fmt.Errorf("fleet: pshard mode cannot replicate an existing full Kalman state; start fresh or Resume a sharded fleet checkpoint")
	}
	f.pblocks = optimize.SplitBlocks(m.Params.LayerSizes(), opt.KCfg.BlockSize)
	f.pstates = make([]*pshard.State, len(f.reps))
	if ck := f.cfg.pshardResume; ck != nil {
		return f.restoreShards(ck, live)
	}
	assign := pshard.Partition(f.pblocks, len(live))
	for k, id := range live {
		f.pstates[id] = pshard.NewState(opt.KCfg, assign, k, f.reps[id].dev)
	}
	f.installAssign(assign, live)
	return nil
}

// installAssign records a newly applied partition: the rank↔replica map,
// the stats mirror, and each replica's resident-bytes gauge.  Conductor
// only (or during construction).
func (f *Fleet) installAssign(assign pshard.Assignment, live []int) {
	f.passign = assign
	f.pliveIDs = append(f.pliveIDs[:0], live...)
	ps := &PShardStats{
		Ranks:                assign.Ranks,
		Blocks:               len(assign.Blocks),
		RankReplicaIDs:       append([]int(nil), live...),
		TotalBytes:           assign.TotalBytes(),
		ImbalanceRatio:       assign.ImbalanceRatio(),
		ExchangeBytesPerStep: int64(1+f.reps[0].opt.ForceGroups) * assign.ExchangeBytesPerCollective(),
	}
	for r := 0; r < assign.Ranks; r++ {
		ps.ShardsPerRank = append(ps.ShardsPerRank, len(assign.Owners[r]))
		ps.ResidentBytesPerRank = append(ps.ResidentBytesPerRank, assign.RankBytes(r))
	}
	f.pstats.Store(ps)
	for _, r := range f.reps {
		if st := f.pstates[r.id]; st != nil {
			r.pBytes.Store(st.PBytes())
		} else {
			r.pBytes.Store(0)
		}
	}
}

// ensureShards repartitions the covariance when the live set changed since
// the current assignment was installed: the old owners' slabs — including
// a gracefully killed victim's, which the conductor still holds — are
// gathered into an in-memory sharded checkpoint and retiled onto the new
// rank count, so kill, revive and autoscale transitions preserve every P
// row bitwise.  Conductor only.
func (f *Fleet) ensureShards(live []int) error {
	if equalIDs(f.pliveIDs, live) {
		return nil
	}
	var old []*pshard.State
	for _, id := range f.pliveIDs {
		if st := f.pstates[id]; st != nil {
			old = append(old, st)
		}
	}
	if len(old) == 0 {
		// No shard state survived at all (only reachable after a total
		// recovery failure): restart the filter from the identity prior.
		assign := pshard.Partition(f.pblocks, len(live))
		for k, id := range live {
			f.pstates[id] = pshard.NewState(f.reps[live[0]].opt.KCfg, assign, k, f.reps[id].dev)
		}
		f.installAssign(assign, live)
		return nil
	}
	ck, err := pshard.BuildCheckpoint(old)
	if err != nil {
		return fmt.Errorf("fleet: gather shard checkpoint: %w", err)
	}
	return f.restoreShards(ck, live)
}

// restoreShards retiles a sharded checkpoint onto the given live set: new
// states are built first (so a failure leaves the old partition intact),
// then the old slabs are freed and the new assignment installed.
func (f *Fleet) restoreShards(ck *pshard.Checkpoint, live []int) error {
	assign := pshard.Partition(f.pblocks, len(live))
	fresh := make([]*pshard.State, len(live))
	for k, id := range live {
		st, err := pshard.NewStateFrom(ck, assign, k, f.reps[id].dev)
		if err != nil {
			for _, s := range fresh {
				if s != nil {
					s.Free()
				}
			}
			return fmt.Errorf("fleet: restore shards: %w", err)
		}
		fresh[k] = st
	}
	for id, st := range f.pstates {
		if st != nil {
			st.Free()
			f.pstates[id] = nil
		}
	}
	for k, id := range live {
		f.pstates[id] = fresh[k]
	}
	f.installAssign(assign, live)
	return nil
}

// recoverShards rebuilds the shard states after a hard mid-step transport
// failure.  Unlike a graceful kill, the dead ranks' slabs are treated as
// lost, and the survivors may have diverged scalar state (some ranks
// applied the final measurement before the ring broke, others aborted).
// The first survivor's (λ, updates) is taken as the reference epoch; slabs
// of survivors at that epoch are kept, and every row without a surviving
// owner is reset to the identity prior — the filter restarts its
// covariance for those rows while the reconciled weights carry on.
// Conductor only.
func (f *Fleet) recoverShards(survivors []int) {
	if len(survivors) == 0 {
		for id, st := range f.pstates {
			if st != nil {
				st.Free()
				f.pstates[id] = nil
			}
		}
		f.pliveIDs = f.pliveIDs[:0]
		return
	}
	var ref *pshard.State
	for _, id := range survivors {
		if st := f.pstates[id]; st != nil {
			ref = st
			break
		}
	}
	if ref == nil {
		// Every surviving replica lost its shard state: restart the filter.
		assign := pshard.Partition(f.pblocks, len(survivors))
		for k, id := range survivors {
			f.pstates[id] = pshard.NewState(f.reps[survivors[0]].opt.KCfg, assign, k, f.reps[id].dev)
		}
		f.installAssign(assign, survivors)
		return
	}
	var keep []*pshard.State
	for _, id := range survivors {
		st := f.pstates[id]
		if st == nil {
			continue
		}
		if math.Float64bits(st.Lambda) == math.Float64bits(ref.Lambda) && st.Updates == ref.Updates {
			keep = append(keep, st)
		}
	}
	ck, err := pshard.BuildCheckpoint(keep)
	if err != nil {
		f.loop.SetErr(fmt.Errorf("fleet: recover shard checkpoint: %w", err))
		ck = &pshard.Checkpoint{Cfg: ref.Cfg, Lambda: ref.Lambda, Updates: ref.Updates,
			Sizes: optimize.BlockSizes(f.pblocks)}
	}
	fillMissingRows(ck, f.pblocks)
	if err := f.restoreShards(ck, survivors); err != nil {
		f.loop.SetErr(fmt.Errorf("fleet: recover shards: %w", err))
	}
}

// fillMissingRows appends identity rows for every block row the checkpoint
// does not cover, so NewStateFrom can retile the full covariance after
// shard loss.
func fillMissingRows(ck *pshard.Checkpoint, blocks []optimize.Block) {
	covered := make([][]bool, len(blocks))
	for i, b := range blocks {
		covered[i] = make([]bool, b.Size())
	}
	for _, s := range ck.Shards {
		for i := s.RowLo; i < s.RowHi; i++ {
			covered[s.Block][i] = true
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

// shardDrift is the sharded analogue of the P-drift invariant gauge: the
// slabs are disjoint, so P cannot be compared rank-to-rank, but the scalar
// filter state (λ, update count) is replicated on every rank and must stay
// bit-identical under the lockstep schedule.  An update-count mismatch or a
// missing state reports +Inf.
func (f *Fleet) shardDrift(live []int) float64 {
	var ref *pshard.State
	d := 0.0
	for _, id := range live {
		st := f.pstates[id]
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

// storeLambda mirrors the reference rank's λ for the stats readers: from
// the sharded scalar state in pshard mode, from the replicated filter
// otherwise.
func (f *Fleet) storeLambda(live []int) {
	if len(live) == 0 {
		return
	}
	if f.cfg.PShard {
		if st := f.pstates[live[0]]; st != nil {
			f.lambdaBits.Store(math.Float64bits(st.Lambda))
		}
		return
	}
	f.lambdaBits.Store(math.Float64bits(f.reps[live[0]].opt.Lambda()))
}
