package fleet

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"fekf/internal/cluster"
	"fekf/internal/device"
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

// covariance holds the fleet's Kalman covariance P: one
// optimize.KalmanState per live slot, in both modes; the replicas' own
// filters hold none.  Config.PShard (the checkpoint's on Resume) decides
// only which slabs each rank owns: every block whole on every rank — the
// paper's data-parallel layout, kept bitwise identical by lockstep — or
// its pshard.Partition share, whose P·g rows the ranks exchange over the
// ring.  Everything else is derived from what the states own.  P is refit
// to the live set at every membership change, and every P that enters the
// fleet goes through fit, which checks that it fits before anything is
// replaced; a checkpoint's P is validated first (applyCheckpoint).
// Conductor only (or before Start / after Stop), except row, which is safe
// from any goroutine.
type covariance struct {
	sharded     bool
	cfg         optimize.KalmanConfig // for the identity prior
	blocks      []optimize.Block
	forceGroups int
	devs        []*device.Device        // per slot
	states      []*optimize.KalmanState // per slot; nil for a slot holding no P
	segs        []cluster.Segment       // exchange table; empty when every rank owns every row
	liveIDs     []int                   // the live set P is fit to; rank k is liveIDs[k]
	stats       atomic.Pointer[PShardStats]
}

func newCovariance(sharded bool, opt *optimize.FEKF, reps []*replica, layerSizes []int) *covariance {
	c := &covariance{
		sharded:     sharded,
		cfg:         opt.KCfg,
		blocks:      optimize.SplitBlocks(layerSizes, opt.KCfg.BlockSize),
		forceGroups: opt.ForceGroups,
		states:      make([]*optimize.KalmanState, len(reps)),
	}
	for _, r := range reps {
		c.devs = append(c.devs, r.dev)
	}
	return c
}

// layout is the slab choice for the live ranks: the slabs each rank owns,
// the exchange table their P·g rows travel by, and the /v1/stats pshard
// row.  A replicated P gives every rank every block whole, with no
// exchange and no row.
func (c *covariance) layout(live []int) ([][]optimize.Slab, []cluster.Segment, *PShardStats) {
	if !c.sharded {
		owners := make([][]optimize.Slab, len(live))
		for k := range owners {
			owners[k] = optimize.WholeSlabs(c.blocks)
		}
		return owners, nil, nil
	}
	a := pshard.Partition(c.blocks, len(live))
	row := &PShardStats{
		Ranks:                a.Ranks,
		Blocks:               len(a.Blocks),
		RankReplicaIDs:       slices.Clone(live),
		TotalBytes:           a.TotalBytes(),
		ImbalanceRatio:       a.ImbalanceRatio(),
		ExchangeBytesPerStep: int64(1+c.forceGroups) * a.ExchangeBytesPerCollective(),
	}
	for r := 0; r < a.Ranks; r++ {
		row.ShardsPerRank = append(row.ShardsPerRank, len(a.Owners[r]))
		row.ResidentBytesPerRank = append(row.ResidentBytesPerRank, a.RankBytes(r))
	}
	return a.Owners, a.Segments(), row
}

// over returns the covariance replica id updates in a step over ring: its
// state itself when every rank owns every row, else the state bound to the
// ring's P·g exchange.
func (c *covariance) over(id int, ring *cluster.Ring) optimize.Covariance {
	if len(c.segs) == 0 {
		return c.states[id]
	}
	return pshard.Over(c.states[id], slices.Index(c.liveIDs, id), c.segs, ring)
}

// fit installs P over live.  Every live slot gets its slabs of live's
// layout restored from ck — nil ck: the identity prior — except, with
// keep, a slot whose state already owns exactly those slabs; slots outside
// live free theirs.  ck shares no state's rows: a gather, whose P the
// states kept symmetric, or a checkpoint the caller validated.  fit checks
// only that ck fits the blocks, before anything is freed; after that no
// restore fails, so each replaced state is freed before its successor is
// built, and the peak holds no second copy of P.
func (c *covariance) fit(ck *optimize.SlabCheckpoint, live []int, keep bool) error {
	if ck != nil {
		if err := ck.Fits(c.blocks); err != nil {
			return fmt.Errorf("fleet: restore covariance: %w", err)
		}
	}
	owners, segs, row := c.layout(live)
	next := make([]*optimize.KalmanState, len(c.states))
	for k, id := range live {
		if st := c.states[id]; keep && st != nil && slices.Equal(st.Slabs, owners[k]) {
			next[id] = st
		}
	}
	for id, st := range c.states {
		if st != nil && st != next[id] {
			st.Free()
		}
	}
	c.states, c.segs = next, segs
	c.liveIDs = slices.Clone(live)
	c.stats.Store(row)
	for k, id := range live {
		switch {
		case next[id] != nil:
		case ck == nil:
			next[id] = optimize.NewSlabState(c.cfg, c.blocks, owners[k], c.devs[id])
		default:
			st, err := optimize.NewStateFrom(ck, c.blocks, owners[k], c.devs[id])
			if err != nil {
				panic(fmt.Sprintf("fleet: restore of a fitting covariance failed: %v", err))
			}
			next[id] = st
		}
	}
	return nil
}

// gather copies every row of the P the slots hold now into one slab
// checkpoint, each row once (optimize.GatherSlabs); nil when no slot holds
// any.
func (c *covariance) gather() (*optimize.SlabCheckpoint, error) {
	var held []*optimize.KalmanState
	for _, st := range c.states {
		if st != nil {
			held = append(held, st)
		}
	}
	if len(held) == 0 {
		return nil, nil
	}
	ck, err := optimize.GatherSlabs(held)
	if err != nil {
		return nil, fmt.Errorf("fleet: gather covariance: %w", err)
	}
	return ck, nil
}

// refit moves P onto the live set after a membership change — Kill,
// Revive, autoscale: slots whose slabs are unchanged keep their state, and
// the others restore from one gather of the P held now, a gracefully
// killed replica's slabs included.  Killing the last live replica leaves P
// where it is: nothing steps until a rollback restores a live set.
func (c *covariance) refit(live []int) error {
	if len(live) == 0 {
		return nil
	}
	owners, _, _ := c.layout(live)
	for k, id := range live {
		if st := c.states[id]; st == nil || !slices.Equal(st.Slabs, owners[k]) {
			ck, err := c.gather()
			if err != nil {
				return err
			}
			return c.fit(ck, live, true)
		}
	}
	return c.fit(nil, live, true)
}

// recover rebuilds P over a broken ring's reconciled survivors.  Unlike a
// graceful kill, the dead ranks' states are lost, and the survivors may
// hold diverged scalar state (some ranks applied the final measurement
// before the ring broke, others aborted): the first holding survivor's
// (λ, updates) is the reference epoch, and states off it are dropped.
// The refit then restores every row no kept state holds to the identity
// prior, decorrelated from the kept rows (resetLostRows) — the filter
// restarts its covariance for those rows while the reconciled weights
// carry on.
func (c *covariance) recover(survivors []int) error {
	var ref *optimize.KalmanState
	for id, st := range c.states {
		if st == nil {
			continue
		}
		if slices.Contains(survivors, id) && (ref == nil ||
			math.Float64bits(st.Lambda) == math.Float64bits(ref.Lambda) && st.Updates == ref.Updates) {
			if ref == nil {
				ref = st
			}
			continue
		}
		st.Free()
		c.states[id] = nil
	}
	ck, err := c.gather()
	if err != nil {
		return err
	}
	lost := ck != nil && resetLostRows(ck, c.blocks)
	return c.fit(ck, survivors, !lost)
}

// resetLostRows resets every block row the checkpoint does not hold — and
// its column — to the identity prior and reports whether there was one.
// Zeroing the lost columns of the kept rows drops the correlations the
// lost rows carried and keeps P symmetric: with kept rows K and lost rows
// L it becomes diag(P_KK, I), positive-definite because P_KK is a
// principal submatrix of a positive-definite P.
func resetLostRows(ck *optimize.SlabCheckpoint, blocks []optimize.Block) bool {
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
	lost := false
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
			ck.Shards = append(ck.Shards, optimize.SlabRows{Block: bi, RowLo: lo, RowHi: hi, Rows: data})
			lo, lost = hi, true
		}
	}
	return lost
}

// diag is the P diagonal replica id gates on and the sentinel samples: the
// diagonal of its own rows, zeros elsewhere.  Under pshard that is a
// documented approximation for the gate: scores touching unowned rows read
// 0, so the partial gate is more permissive than the full diagonal, never
// stricter.
func (c *covariance) diag(id int) []float64 {
	if st := c.states[id]; st != nil {
		return st.PDiagonal()
	}
	return nil
}

// lambda is the memory factor λ replica id's filter holds.
func (c *covariance) lambda(id int) (float64, bool) {
	if st := c.states[id]; st != nil {
		return st.Lambda, true
	}
	return 0, false
}

// drift is the P invariant gauge over live, exactly 0 in lockstep: +Inf on
// a missing state or a (λ, updates) mismatch, else the largest |ΔP|
// between states that own every row — disjoint slabs hold no rows in
// common to compare.
func (c *covariance) drift(live []int) float64 {
	ref := c.states[live[0]]
	if ref == nil {
		return math.Inf(1)
	}
	d := 0.0
	for _, id := range live[1:] {
		st := c.states[id]
		if st == nil || math.Float64bits(st.Lambda) != math.Float64bits(ref.Lambda) || st.Updates != ref.Updates {
			return math.Inf(1)
		}
		if ref.OwnsAll() && st.OwnsAll() {
			d = max(d, ref.PDrift(st))
		}
	}
	return d
}

// resident is replica id's resident covariance bytes.
func (c *covariance) resident(id int) int64 {
	if st := c.states[id]; st != nil {
		return st.PBytes()
	}
	return 0
}

// save adds P to a fleet checkpoint, stored once: a replicated P as the
// optimizer's full Kalman state, a sharded one as every slab by its owner
// in PCk.
func (c *covariance) save(ck *Checkpoint) error {
	if !c.sharded {
		ck.Opt.Kalman = c.states[c.liveIDs[0]].Checkpoint()
		return nil
	}
	pck, err := c.gather()
	if err != nil {
		return err
	}
	ck.PShard, ck.PCk = true, pck
	return nil
}

// reassign is the shard-transfer cost of the autoscaler's candidate
// transitions: growing or shrinking a sharded fleet repartitions P, and the
// controller charges the modeled transfer time against its cooldowns.  A
// replicated P moves no rows between ranks.
func (c *covariance) reassign(live []int) (up, down int64) {
	if !c.sharded || len(live) == 0 {
		return 0, 0
	}
	cur := pshard.Partition(c.blocks, len(live))
	if len(live) < len(c.states) {
		up = pshard.ReassignBytes(cur, pshard.Partition(c.blocks, len(live)+1))
	}
	if len(live) > 1 {
		down = pshard.ReassignBytes(cur, pshard.Partition(c.blocks, len(live)-1))
	}
	return up, down
}

// row is the /v1/stats pshard row; nil when P is replicated.
func (c *covariance) row() *PShardStats { return c.stats.Load() }
