package pshard

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fekf/internal/cluster"
	"fekf/internal/device"
	"fekf/internal/optimize"
	"fekf/internal/tensor"
)

// symRandom returns an n×n matrix that is exactly bitwise symmetric (the
// invariant the live P maintains: both kernels write bit-equal mirrors).
func symRandom(n int, rng *rand.Rand) *tensor.Dense {
	p := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			p.Set(i, j, v)
			p.Set(j, i, v)
		}
	}
	return p
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSlabDrainMatchesKernels proves the row-slab drain kernels reproduce
// the full-block covariance update bitwise, at several slab boundaries,
// for both the fused and the naive kernel.
func TestSlabDrainMatchesKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 17, 33} {
		p0 := symRandom(n, rng)
		k := tensor.New(n, 1)
		for i := range k.Data {
			k.Data[i] = rng.NormFloat64()
		}
		a := 0.5 + rng.Float64()
		lambda := 0.9 + 0.09*rng.Float64()
		for _, cuts := range [][]int{{0, n}, {0, 1, n}, {0, n / 2, n}, {0, n / 3, 2 * n / 3, n}} {
			for _, fused := range []bool{true, false} {
				full := p0.Clone()
				if fused {
					tensor.PUpdateFusedSlab(full, 0, k.Data, a, lambda)
				} else {
					tensor.PUpdateNaive(full, k, a, lambda)
				}
				got := tensor.New(n, n)
				for c := 0; c+1 < len(cuts); c++ {
					lo, hi := cuts[c], cuts[c+1]
					if lo >= hi {
						continue
					}
					slab := tensor.FromSlice(hi-lo, n, append([]float64(nil), p0.Data[lo*n:hi*n]...))
					if fused {
						tensor.PUpdateFusedSlab(slab, lo, k.Data, a, lambda)
					} else {
						tensor.PUpdateNaiveSlab(slab, lo, k.Data, a, lambda)
					}
					copy(got.Data[lo*n:hi*n], slab.Data)
				}
				if !bitsEqual(got.Data, full.Data) {
					t.Fatalf("n=%d cuts=%v fused=%v: slab drain diverges from full kernel", n, cuts, fused)
				}
			}
		}
	}
}

// exchangeInProc copies the owned P·g fragments between the states'
// scratch vectors exactly as Ring.AllgatherSegments would over a real
// transport (both transports are bit-transparent; the collective itself
// is covered by the cluster tests and TestRankStep).
func exchangeInProc(segs []cluster.Segment, pgs [][]float64) {
	for _, sg := range segs {
		src := pgs[sg.Owner][sg.Lo:sg.Hi]
		for r := range pgs {
			if r != sg.Owner {
				copy(pgs[r][sg.Lo:sg.Hi], src)
			}
		}
	}
}

// kalmanVariants returns the four kernel configurations of the unsharded
// filter; the sharded update must match every one bitwise.
func kalmanVariants(base optimize.KalmanConfig) []optimize.KalmanConfig {
	var out []optimize.KalmanConfig
	for _, fused := range []bool{true, false} {
		for _, cache := range []bool{true, false} {
			c := base
			c.FusedPUpdate = fused
			c.CachePg = cache
			out = append(out, c)
		}
	}
	return out
}

// runSharded applies `steps` synthetic measurements to R sharded states
// (manual in-process exchange) and returns the states plus the deltas.
func runSharded(cfg optimize.KalmanConfig, blocks []optimize.Block, ranks, steps int, seed int64) ([]*optimize.KalmanState, [][]float64) {
	assign := Partition(blocks, ranks)
	var states []*optimize.KalmanState
	for r := 0; r < ranks; r++ {
		states = append(states, optimize.NewSlabState(cfg, assign.Blocks, assign.Owners[r], device.New(fmt.Sprintf("ps%d", r), device.A100())))
	}
	nParams := blocks[len(blocks)-1].Hi
	rng := rand.New(rand.NewSource(seed))
	var deltas [][]float64
	for s := 0; s < steps; s++ {
		g := make([]float64, nParams)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		abe := math.Abs(rng.NormFloat64())
		scale := 1 + rng.Float64()
		pgs := make([][]float64, ranks)
		for r, st := range states {
			pgs[r] = st.GainOwned(g)
		}
		exchangeInProc(assign.Segments(), pgs)
		var delta []float64
		for _, st := range states {
			d, drain := st.FinishUpdate(g, abe, scale)
			drain()
			if delta == nil {
				delta = d
			} else if !bitsEqual(delta, d) {
				panic("ranks disagree on delta")
			}
		}
		deltas = append(deltas, delta)
	}
	return states, deltas
}

// runKalman applies the identical synthetic measurement sequence to the
// unsharded filter.
func runKalman(cfg optimize.KalmanConfig, layerSizes []int, steps int, seed int64) (*optimize.KalmanState, [][]float64) {
	ks := optimize.NewKalmanState(cfg, layerSizes, device.New("ref", device.A100()))
	nParams := 0
	for _, b := range ks.Blocks {
		nParams = b.Hi
	}
	rng := rand.New(rand.NewSource(seed))
	var deltas [][]float64
	for s := 0; s < steps; s++ {
		g := make([]float64, nParams)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		abe := math.Abs(rng.NormFloat64())
		scale := 1 + rng.Float64()
		deltas = append(deltas, ks.Update(g, abe, scale))
	}
	return ks, deltas
}

// assembleP reconstructs the full per-block covariance from a sharded
// checkpoint.
func assembleP(ck *optimize.SlabCheckpoint) []*tensor.Dense {
	var ps []*tensor.Dense
	for _, n := range ck.Sizes {
		ps = append(ps, tensor.New(n, n))
	}
	for _, s := range ck.Shards {
		n := ck.Sizes[s.Block]
		copy(ps[s.Block].Data[s.RowLo*n:s.RowHi*n], s.Rows)
	}
	return ps
}

func assertStatesMatchKalman(t *testing.T, states []*optimize.KalmanState, ks *optimize.KalmanState) {
	t.Helper()
	for r, st := range states {
		if math.Float64bits(st.Lambda) != math.Float64bits(ks.Lambda) {
			t.Fatalf("rank %d λ %v, unsharded %v", r, st.Lambda, ks.Lambda)
		}
		if st.Updates != ks.Updates {
			t.Fatalf("rank %d updates %d, unsharded %d", r, st.Updates, ks.Updates)
		}
	}
	ck, err := optimize.GatherSlabs(states)
	if err != nil {
		t.Fatal(err)
	}
	for bi, p := range assembleP(ck) {
		if !bitsEqual(p.Data, ks.P[bi].Data) {
			t.Fatalf("block %d reassembled P diverges from unsharded", bi)
		}
	}
}

// TestShardedUpdateMatchesKalman is the core bitwise contract: R ∈
// {1,2,3,4} sharded filters applying a synthetic measurement sequence
// produce bit-identical Δw, λ and (reassembled) P to the unsharded
// KalmanState, under every kernel configuration (fused × cached-Pg).
func TestShardedUpdateMatchesKalman(t *testing.T) {
	layerSizes := []int{9, 26, 7, 13}
	base := optimize.KalmanConfig{BlockSize: 16, Lambda0: 0.98, Nu: 0.9987}
	const steps = 4
	for _, cfg := range kalmanVariants(base) {
		ks, refDeltas := runKalman(cfg, layerSizes, steps, 11)
		blocks := ks.Blocks
		for ranks := 1; ranks <= 4; ranks++ {
			states, deltas := runSharded(cfg, blocks, ranks, steps, 11)
			for s := range deltas {
				if !bitsEqual(deltas[s], refDeltas[s]) {
					t.Fatalf("cfg %+v ranks %d step %d: Δw diverges", cfg, ranks, s)
				}
			}
			assertStatesMatchKalman(t, states, ks)
		}
	}
}

// TestCheckpointRepartitionBitwise checkpoints a 3-rank run mid-sequence,
// restores it under a 2-rank and a 4-rank assignment (different slab
// boundaries), finishes the sequence, and requires the result to stay
// bit-identical to the uninterrupted unsharded filter — the kill/revive,
// autoscale and resume paths all reduce to exactly this repartition.
func TestCheckpointRepartitionBitwise(t *testing.T) {
	layerSizes := []int{9, 26, 7, 13}
	cfg := optimize.KalmanConfig{BlockSize: 16, Lambda0: 0.98, Nu: 0.9987, FusedPUpdate: true, CachePg: true}
	const half, steps = 2, 5
	ks, _ := runKalman(cfg, layerSizes, steps, 23)
	blocks := ks.Blocks

	states3, _ := runSharded(cfg, blocks, 3, half, 23)
	ck, err := optimize.GatherSlabs(states3)
	if err != nil {
		t.Fatal(err)
	}
	for _, newRanks := range []int{2, 4} {
		assign := Partition(blocks, newRanks)
		var states []*optimize.KalmanState
		for r := 0; r < newRanks; r++ {
			st, err := optimize.NewStateFrom(ck, assign.Blocks, assign.Owners[r], device.New(fmt.Sprintf("re%d", r), device.A100()))
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, st)
		}
		// Replay the same tail of the measurement sequence: regenerate the
		// full sequence's RNG stream and skip the first half.
		nParams := blocks[len(blocks)-1].Hi
		rng := rand.New(rand.NewSource(23))
		for s := 0; s < steps; s++ {
			g := make([]float64, nParams)
			for i := range g {
				g[i] = rng.NormFloat64()
			}
			abe := math.Abs(rng.NormFloat64())
			scale := 1 + rng.Float64()
			if s < half {
				continue
			}
			pgs := make([][]float64, newRanks)
			for r, st := range states {
				pgs[r] = st.GainOwned(g)
			}
			exchangeInProc(assign.Segments(), pgs)
			for _, st := range states {
				_, drain := st.FinishUpdate(g, abe, scale)
				drain()
			}
		}
		assertStatesMatchKalman(t, states, ks)
	}
}

// TestStatePBytesMatchesAssignment ties the runtime gauge to the
// partitioner arithmetic: the allocated slab bytes equal the assignment's
// computed per-rank load, and summed over ranks equal the unsharded total.
// Together with TestPartitionPaperBound (pure arithmetic on the paper
// split, no 1.8 GB allocation) this is the R=4 ≤ ~1/3 memory assertion.
func TestStatePBytesMatchesAssignment(t *testing.T) {
	blocks := blocksOf([]int{9, 26, 7, 13})
	cfg := optimize.KalmanConfig{BlockSize: 16, Lambda0: 0.98, Nu: 0.9987}
	assign := Partition(blocks, 4)
	var sum int64
	for r := 0; r < 4; r++ {
		st := optimize.NewSlabState(cfg, assign.Blocks, assign.Owners[r], device.New(fmt.Sprintf("pb%d", r), device.A100()))
		if got, want := st.PBytes(), assign.RankBytes(r); got != want {
			t.Fatalf("rank %d PBytes %d, assignment says %d", r, got, want)
		}
		sum += st.PBytes()
	}
	if sum != assign.TotalBytes() {
		t.Fatalf("summed resident bytes %d != total %d", sum, assign.TotalBytes())
	}
}
