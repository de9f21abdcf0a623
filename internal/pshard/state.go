package pshard

import (
	"fmt"
	"sync"

	"fekf/internal/cluster"
	"fekf/internal/device"
	"fekf/internal/optimize"
	"fekf/internal/tensor"
)

// State is one rank's share of the sharded Kalman filter: the row slabs
// of P it owns plus the full-width scratch the funnel update needs.  The
// scalar filter state (λ, update count) is replicated on every rank —
// it advances identically everywhere because every rank applies the same
// reduced measurement.
//
// The per-measurement protocol (see Over):
//
//	pg := st.GainOwned(g)                    // owned rows of P·g
//	ring.AllgatherSegments(rank, pg, segs)   // everyone gets the full P·g
//	delta, drain := st.FinishUpdate(g, abe, scale)
//
// After the allgather every rank holds the bitwise-identical P·g, so a,
// K, Δw and the λ advance are computed redundantly-but-identically, and
// the drain refreshes only the owned slabs.  The exchange carries P·g
// rather than Δw because the gain denominator a = 1/(λ+gᵀPg) needs the
// full per-block P·g before any Δw exists.
type State struct {
	Cfg    optimize.KalmanConfig
	Blocks []optimize.Block
	Assign Assignment
	Rank   int
	Lambda float64
	Dev    *device.Device

	Updates int

	shards []Shard
	slabs  []*tensor.Dense // per owned shard: Rows()×n
	pg     []float64       // param-aligned P·g (owned rows filled locally, rest by allgather)
	kv     []float64       // param-aligned gain K, held across a deferred drain
	av     []float64       // per-block denominator a, held across a deferred drain
	segs   []cluster.Segment
	// draining mirrors KalmanState.draining: set between FinishUpdate and
	// drain completion; callers serialize the two.
	draining bool
}

// NewState allocates rank's share of a fresh filter (every P block the
// identity) under the given assignment.
func NewState(cfg optimize.KalmanConfig, assign Assignment, rank int, dev *device.Device) *State {
	st := newShell(cfg, assign, rank, dev)
	st.Lambda = cfg.Lambda0
	for si, sh := range st.shards {
		slab := st.slabs[si]
		for r := 0; r < sh.Rows(); r++ {
			slab.Set(r, sh.RowLo+r, 1)
		}
	}
	return st
}

// newShell builds the state skeleton with zeroed slabs and accounts the
// device memory: the owned slabs plus the two param-width scratch vectors.
func newShell(cfg optimize.KalmanConfig, assign Assignment, rank int, dev *device.Device) *State {
	if rank < 0 || rank >= assign.Ranks {
		panic(fmt.Sprintf("pshard: rank %d outside assignment of %d", rank, assign.Ranks))
	}
	nParams := 0
	if len(assign.Blocks) > 0 {
		nParams = assign.Blocks[len(assign.Blocks)-1].Hi
	}
	st := &State{
		Cfg:    cfg,
		Blocks: assign.Blocks,
		Assign: assign,
		Rank:   rank,
		Dev:    dev,
		pg:     make([]float64, nParams),
		kv:     make([]float64, nParams),
		av:     make([]float64, len(assign.Blocks)),
		segs:   assign.Segments(),
	}
	st.shards = append(st.shards, assign.Owners[rank]...)
	var bytes int64
	for _, sh := range st.shards {
		n := assign.Blocks[sh.Block].Size()
		st.slabs = append(st.slabs, tensor.New(sh.Rows(), n))
		bytes += int64(sh.Rows()) * int64(n) * 8
	}
	dev.Alloc(bytes + 2*int64(nParams)*8)
	return st
}

// NumParams returns the flat parameter count the filter covers.
func (st *State) NumParams() int { return len(st.pg) }

// Shards returns the owned shard list (sorted by block, row).
func (st *State) Shards() []Shard { return st.shards }

// Segments returns the allgather exchange table — identical on every rank
// of the same assignment.
func (st *State) Segments() []cluster.Segment { return st.segs }

// PBytes returns the resident bytes of the owned P slabs — the per-rank
// value of the fekf_p_resident_bytes gauge (the replicated fleet reports
// the full KalmanState.PBytes on the same gauge).
func (st *State) PBytes() int64 {
	var total int64
	for _, s := range st.slabs {
		total += int64(s.Len()) * 8
	}
	return total
}

// Free releases the device memory newShell accounted.
func (st *State) Free() {
	st.Dev.Free(st.PBytes() + 2*int64(len(st.pg))*8)
	st.slabs = nil
	st.pg = nil
	st.kv = nil
}

// GainOwned computes the owned rows of P·g into the param-aligned scratch
// and returns it; the caller then allgathers the unowned segments before
// FinishUpdate.  No filter state is mutated, so an exchange that fails
// afterwards aborts the measurement cleanly.
func (st *State) GainOwned(g []float64) []float64 {
	if st.draining {
		panic("pshard: GainOwned before the previous drain completed")
	}
	if len(g) != len(st.pg) {
		panic(fmt.Sprintf("pshard: gradient %d vs %d params", len(g), len(st.pg)))
	}
	for si, sh := range st.shards {
		b := st.Blocks[sh.Block]
		rows := int64(sh.Rows())
		n := int64(b.Size())
		optimize.SlabMatVecInto(st.pg[b.Lo+sh.RowLo:b.Lo+sh.RowHi], st.slabs[si], g[b.Lo:b.Hi])
		st.Dev.LaunchPhase("p_matvec", device.PhaseOptimizer, 2*rows*n, rows*n*8)
	}
	return st.pg
}

// Over binds st to ring — at ring rank st.Rank — as the covariance of
// the step schedule (optimize.RankStep).  Each measurement computes the
// owned P·g rows, allgathers the rest from the other owners (the
// "exchange" collective absent from the replicated step), then finishes
// the update from the now-identical full P·g, so every rank applies the
// same weight increment.  A broken exchange leaves the measurement
// unapplied: GainOwned writes only scratch.
func (st *State) Over(ring *cluster.Ring) optimize.Covariance {
	return ringShare{st, ring}
}

// ringShare is a State bound to the ring its exchange runs on.
type ringShare struct {
	st   *State
	ring *cluster.Ring
}

// Measure implements optimize.Covariance, timing the owned-rows gain, the
// exchange and the finishing gain as separate phases.
func (c ringShare) Measure(g []float64, abe, scale float64, pt *optimize.PhaseTimer) ([]float64, func(), error) {
	pg := c.st.GainOwned(g)
	pt.End("gain")
	pt.Start()
	if err := c.ring.AllgatherSegments(c.st.Rank, pg, c.st.Segments()); err != nil {
		return nil, nil, fmt.Errorf("exchange: %w", err)
	}
	pt.End("exchange")
	pt.Start()
	delta, drain := c.st.FinishUpdate(g, abe, scale)
	return delta, drain, nil
}

// FinishUpdate completes the measurement after the P·g exchange: per
// block the denominator a = 1/(λ+gᵀ·Pg), the gain K = a·Pg and the weight
// increment Δw = scale·abe·K — all from the allgathered P·g, so every
// rank computes bit-identical values — then advances λ and returns the
// increment with a drain that refreshes the owned slabs using the a, K,
// λ captured at gain time.  The a·Pg form matches both CachePg settings
// of the unsharded filter bitwise (the uncached path recomputes P·g —
// the same bits — and scales in place; IEEE multiplication commutes).
func (st *State) FinishUpdate(g []float64, abe, scale float64) (delta []float64, drain func()) {
	lambda := st.Lambda
	delta = make([]float64, len(g))
	tensor.ParallelFor(len(st.Blocks), func(blo, bhi int) {
		for i := blo; i < bhi; i++ {
			b := st.Blocks[i]
			n := int64(b.Size())
			gi := tensor.Vector(g[b.Lo:b.Hi])
			pgi := tensor.Vector(st.pg[b.Lo:b.Hi])
			a := 1 / (lambda + tensor.Dot(gi, pgi))
			st.Dev.LaunchPhase("a_scalar", device.PhaseOptimizer, 2*n, 2*n*8)
			kb := st.kv[b.Lo:b.Hi]
			for j := range kb {
				kb[j] = a * pgi.Data[j]
			}
			st.Dev.LaunchPhase("k_scale", device.PhaseOptimizer, n, 2*n*8)
			st.av[i] = a

			s := scale * abe
			dst := delta[b.Lo:b.Hi]
			for j, kj := range kb {
				dst[j] = s * kj
			}
			st.Dev.LaunchPhase("w_increment", device.PhaseOptimizer, n, 2*n*8)
		}
	})

	st.Lambda = st.Lambda*st.Cfg.Nu + 1 - st.Cfg.Nu
	st.Updates++
	st.draining = true
	var once sync.Once
	return delta, func() {
		once.Do(func() {
			st.drainShards(lambda)
			st.draining = false
		})
	}
}

// drainShards refreshes the owned slabs: P ← (1/λ)(P − (1/a)KKᵀ) with
// symmetrization, via the slab kernels that reproduce the full-block
// update bitwise (see optimize/slab.go).
func (st *State) drainShards(lambda float64) {
	tensor.ParallelFor(len(st.shards), func(lo, hi int) {
		for si := lo; si < hi; si++ {
			sh := st.shards[si]
			b := st.Blocks[sh.Block]
			rows := int64(sh.Rows())
			n := int64(b.Size())
			k := st.kv[b.Lo:b.Hi]
			a := st.av[sh.Block]
			if st.Cfg.FusedPUpdate {
				optimize.SlabDrainFused(st.slabs[si], sh.RowLo, k, a, lambda)
				st.Dev.LaunchPhase("p_update_fused", device.PhaseOptimizer, 3*rows*n, 2*rows*n*8)
			} else {
				optimize.SlabDrainNaive(st.slabs[si], sh.RowLo, k, a, lambda)
				st.Dev.LaunchPhase("p_sub_scale", device.PhaseOptimizer, 2*rows*n, 3*rows*n*8)
				st.Dev.LaunchPhase("p_symmetrize", device.PhaseOptimizer, rows*n, 2*rows*n*8)
			}
		}
	})
}

// PDiagonalOwned returns the param-aligned diagonal of P with the owned
// rows filled and zeros elsewhere.  The uncertainty gate scores frames
// against it; with sharding each rank gates on its own diagonal slice —
// a documented approximation (scores involving unowned rows read 0, so
// the partial gate is more permissive than the full diagonal).
func (st *State) PDiagonalOwned() []float64 {
	pd := make([]float64, len(st.pg))
	for si, sh := range st.shards {
		b := st.Blocks[sh.Block]
		for r := 0; r < sh.Rows(); r++ {
			i := sh.RowLo + r
			pd[b.Lo+i] = st.slabs[si].At(r, i)
		}
	}
	return pd
}
