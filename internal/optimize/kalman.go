package optimize

import (
	"fmt"
	"math"
	"sync"

	"fekf/internal/device"
	"fekf/internal/tensor"
)

// KalmanConfig collects the Extended-Kalman-Filter hyper-parameters of
// Algorithm 1 and the optimizer-side system switches of Opt3.
type KalmanConfig struct {
	// BlockSize is the gather-and-split threshold N_b (paper: 10240).
	BlockSize int
	// Lambda0 and Nu drive the memory-factor schedule
	// λ_{t+1} = λ_t·ν + (1−ν) (paper defaults 0.98 and 0.9987).
	Lambda0, Nu float64
	// FusedPUpdate selects the handwritten single-pass P-update kernel
	// instead of the framework-style outer-product + symmetrization.
	FusedPUpdate bool
	// CachePg reuses the P·g intermediate between the a and K
	// computations instead of recomputing it.
	CachePg bool
}

// DefaultKalmanConfig returns the paper's default EKF settings.
func DefaultKalmanConfig() KalmanConfig {
	return KalmanConfig{BlockSize: 10240, Lambda0: 0.98, Nu: 0.9987}
}

// LargeBatchKalmanConfig returns the λ, ν the paper recommends once the
// batch size exceeds ~1024 (Section 3.2).
func LargeBatchKalmanConfig() KalmanConfig {
	return KalmanConfig{BlockSize: 10240, Lambda0: 0.90, Nu: 0.996}
}

// WithOpt3 returns a copy with the Opt3 optimizer kernels enabled.
func (c KalmanConfig) WithOpt3() KalmanConfig {
	c.FusedPUpdate = true
	c.CachePg = true
	return c
}

// Slab is rows [RowLo,RowHi) of the Block-th P block.
type Slab struct {
	Block        int
	RowLo, RowHi int
}

// Rows returns the slab's row count.
func (s Slab) Rows() int { return s.RowHi - s.RowLo }

// WholeSlabs returns one slab per block holding all of its rows: the
// layout of a full P.
func WholeSlabs(blocks []Block) []Slab {
	out := make([]Slab, len(blocks))
	for i, b := range blocks {
		out[i] = Slab{Block: i, RowHi: b.Size()}
	}
	return out
}

// KalmanState is the error-covariance state of the EKF optimizers: the
// block-diagonal P = diag(P_1 … P_L), held as row slabs of its blocks.  A
// full state — fresh, restored or replicated — owns one whole slab per
// block, so P[i] is block i.  A rank of a sharded fleet owns only the
// slabs internal/pshard assigns it; the scalar filter state (λ, update
// count) is the same on every rank, because every rank applies the same
// reduced measurement.
//
// One measurement runs in three steps:
//
//	pg := ks.GainOwned(g)                 // the owned rows of P·g
//	// a sharded rank allgathers the other rows of pg here
//	delta, drain := ks.FinishUpdate(g, abe, scale)
//	drain()                               // refresh the owned rows of P
//
// A full state owns every row, so UpdateSplit runs the first two back to
// back.
//
// The row form is bitwise the full-block update because P is exactly
// bitwise symmetric: it starts as the identity, both drain kernels write
// bit-equal mirror elements (k[i]·k[j] == k[j]·k[i] in IEEE 754), and
// restore rejects a checkpoint whose P is not (SlabCheckpoint.Validate).  So where a full-matrix kernel would read
// the mirror P[j][i], a row reads its own P[i][j] — the same bits.
type KalmanState struct {
	Cfg    KalmanConfig
	Blocks []Block
	// Slabs are the owned row slabs, sorted by (Block, RowLo); P[s] holds
	// the rows of Slabs[s], Rows()×n for a block of n parameters.
	Slabs  []Slab
	P      []*tensor.Dense
	Lambda float64
	Dev    *device.Device

	Updates int
	pg      []float64 // param-aligned P·g: owned rows computed, the rest exchanged
	kv      []float64 // param-aligned gain K, held across a deferred drain
	av      []float64 // per-block gain denominator a, held across a deferred drain
	// draining is set between FinishUpdate and the completion of its
	// drain; callers synchronize the two (the pipeline waits on the drain
	// before the next gain stage), so plain reads/writes suffice.
	draining bool
}

// NewKalmanState builds the block structure from per-layer parameter
// counts and a full state with every P block the identity.
func NewKalmanState(cfg KalmanConfig, layerSizes []int, dev *device.Device) *KalmanState {
	blocks := SplitBlocks(layerSizes, cfg.BlockSize)
	return NewSlabState(cfg, blocks, WholeSlabs(blocks), dev)
}

// NewSlabState builds a state owning the given row slabs of blocks, each
// holding its rows of the identity prior.  The slabs and the two
// param-width scratch vectors (P·g and K) live in device memory, so they
// are accounted on dev; that keeps the memcomm experiment's peak figures
// honest about optimizer state.
func NewSlabState(cfg KalmanConfig, blocks []Block, slabs []Slab, dev *device.Device) *KalmanState {
	nParams := 0
	if len(blocks) > 0 {
		nParams = blocks[len(blocks)-1].Hi
	}
	ks := &KalmanState{
		Cfg:    cfg,
		Blocks: blocks,
		Slabs:  append([]Slab(nil), slabs...),
		Lambda: cfg.Lambda0,
		Dev:    dev,
		pg:     make([]float64, nParams),
		kv:     make([]float64, nParams),
		av:     make([]float64, len(blocks)),
	}
	for _, s := range ks.Slabs {
		n := blocks[s.Block].Size()
		p := tensor.New(s.Rows(), n)
		for r := 0; r < s.Rows(); r++ {
			p.Data[r*n+s.RowLo+r] = 1
		}
		ks.P = append(ks.P, p)
	}
	dev.Alloc(ks.PBytes() + ks.ScratchBytes())
	return ks
}

// PBytes returns the device memory held by the owned P rows.
func (ks *KalmanState) PBytes() int64 {
	var total int64
	for _, p := range ks.P {
		total += int64(p.Len()) * 8
	}
	return total
}

// ScratchBytes returns the device memory held by the P·g and gain scratch
// vectors.
func (ks *KalmanState) ScratchBytes() int64 { return 2 * int64(len(ks.pg)) * 8 }

// Free releases everything NewSlabState allocated on the device and hands
// the P slabs back to tensor.New's pool: nothing may read ks.P afterwards.
func (ks *KalmanState) Free() {
	ks.Dev.Free(ks.PBytes() + ks.ScratchBytes())
	for _, p := range ks.P {
		tensor.Recycle(p)
	}
	ks.P = nil
	ks.pg = nil
	ks.kv = nil
}

// Draining reports whether a measurement's covariance drain is in flight.
func (ks *KalmanState) Draining() bool { return ks.draining }

// OwnsAll reports whether the state holds every row of every block.
func (ks *KalmanState) OwnsAll() bool {
	if len(ks.Slabs) != len(ks.Blocks) {
		return false
	}
	for i, s := range ks.Slabs {
		if s.Block != i || s.RowLo != 0 || s.RowHi != ks.Blocks[i].Size() {
			return false
		}
	}
	return true
}

// Update performs one Kalman measurement update (Algorithm 1 lines 8-13)
// on a full state: given the reduced gradient g (flat, aligned with the
// parameter vector) and the reduced absolute error abe, it refreshes P and
// returns the weight increment Δw = scale·abe·K, where scale carries the
// quasi-learning-rate factor (√bs for FEKF).  Slabs and blocks are
// independent, so every stage splits them across the shared tensor worker
// pool; the result is bitwise identical to serial execution at every
// worker count (device counters are atomic, so the simulated accounting is
// also unchanged).
func (ks *KalmanState) Update(g []float64, abe, scale float64) []float64 {
	delta, drain := ks.UpdateSplit(g, abe, scale)
	drain()
	return delta
}

// UpdateSplit is the two-stage form of Update that the force-group
// pipeline is built on: GainOwned then FinishUpdate, for a state that owns
// every row.  It returns the weight increment together with a drain
// function that performs the deferred covariance refresh
// P ← (1/λ)(P − (1/a)KKᵀ) using the a, K and λ captured at gain time.
//
// Between UpdateSplit and drain the state is "in flight": P still holds
// the pre-update covariance and the scratch holds the gains.  The caller
// may run anything that does not touch this state concurrently with
// drain() — applying the increment, the next measurement's
// forward/backward, or a ring collective — which is exactly the overlap
// the pipelined FEKF exploits.  drain is idempotent; calling UpdateSplit
// again before the previous drain has completed panics, because the next
// gain stage must read the refreshed P.
func (ks *KalmanState) UpdateSplit(g []float64, abe, scale float64) (delta []float64, drain func()) {
	ks.GainOwned(g)
	return ks.FinishUpdate(g, abe, scale)
}

// GainOwned computes the owned rows of P·g into the param-aligned scratch
// and returns it; a sharded rank then allgathers the other rows before
// FinishUpdate.  No filter state is mutated, so an exchange that fails
// afterwards aborts the measurement cleanly.  The framework configuration
// (CachePg off) recomputes P·g for K; the recomputation yields the same
// bits, so only its launch is charged.  Launches charge PhaseOptimizer
// explicitly so a drain overlapping another phase cannot misattribute
// them.
func (ks *KalmanState) GainOwned(g []float64) []float64 {
	if ks.draining {
		panic("optimize: gain stage before the previous drain completed")
	}
	if len(g) != len(ks.pg) {
		panic(fmt.Sprintf("optimize: gradient %d vs %d params", len(g), len(ks.pg)))
	}
	tensor.ParallelFor(len(ks.Slabs), func(lo, hi int) {
		for si := lo; si < hi; si++ {
			s := ks.Slabs[si]
			b := ks.Blocks[s.Block]
			rows, n := int64(s.Rows()), int64(b.Size())
			tensor.MatVecInto(ks.pg[b.Lo+s.RowLo:b.Lo+s.RowHi], ks.P[si], g[b.Lo:b.Hi])
			ks.Dev.LaunchPhase("p_matvec", device.PhaseOptimizer, 2*rows*n, rows*n*8)
			if !ks.Cfg.CachePg {
				ks.Dev.LaunchPhase("p_matvec", device.PhaseOptimizer, 2*rows*n, rows*n*8)
			}
		}
	})
	return ks.pg
}

// FinishUpdate completes the measurement from the full P·g: per block the
// denominator a = 1/(λ+gᵀ·Pg), the gain K = a·Pg and the weight increment
// Δw = scale·abe·K, then it advances λ and returns the increment with a
// drain that refreshes the owned rows using the a, K and λ captured here.
// Every rank of a sharded fleet holds the same P·g after the exchange, so
// every rank computes the same bits.
func (ks *KalmanState) FinishUpdate(g []float64, abe, scale float64) (delta []float64, drain func()) {
	lambda := ks.Lambda
	delta = make([]float64, len(g))
	tensor.ParallelFor(len(ks.Blocks), func(blo, bhi int) {
		for i := blo; i < bhi; i++ {
			b := ks.Blocks[i]
			n := int64(b.Size())
			pg := ks.pg[b.Lo:b.Hi]
			a := 1 / (lambda + tensor.Dot(tensor.Vector(g[b.Lo:b.Hi]), tensor.Vector(pg)))
			ks.Dev.LaunchPhase("a_scalar", device.PhaseOptimizer, 2*n, 2*n*8)
			k := ks.kv[b.Lo:b.Hi]
			for j, v := range pg {
				k[j] = a * v
			}
			ks.Dev.LaunchPhase("k_scale", device.PhaseOptimizer, n, 2*n*8)
			ks.av[i] = a

			s := scale * abe
			dst := delta[b.Lo:b.Hi]
			for j, kj := range k {
				dst[j] = s * kj
			}
			ks.Dev.LaunchPhase("w_increment", device.PhaseOptimizer, n, 2*n*8)
		}
	})

	ks.Lambda = ks.Lambda*ks.Cfg.Nu + 1 - ks.Cfg.Nu
	ks.Updates++
	ks.draining = true
	var once sync.Once
	return delta, func() {
		once.Do(func() {
			ks.drainSlabs(lambda)
			ks.draining = false
		})
	}
}

// drainSlabs runs the deferred covariance refresh on the owned rows:
// P ← (1/λ)(P − (1/a)·KKᵀ), symmetrized.  The framework configuration
// charges the device for the K·Kᵀ and Pᵀ temporaries a framework graph
// materializes, while the host kernel walks each row in place.
func (ks *KalmanState) drainSlabs(lambda float64) {
	tensor.ParallelFor(len(ks.Slabs), func(lo, hi int) {
		for si := lo; si < hi; si++ {
			s := ks.Slabs[si]
			b := ks.Blocks[s.Block]
			rn := int64(s.Rows()) * int64(b.Size())
			k, a := ks.kv[b.Lo:b.Hi], ks.av[s.Block]
			if ks.Cfg.FusedPUpdate {
				tensor.PUpdateFusedSlab(ks.P[si], s.RowLo, k, a, lambda)
				ks.Dev.LaunchPhase("p_update_fused", device.PhaseOptimizer, 3*rn, 2*rn*8)
				continue
			}
			ks.Dev.Alloc(2 * rn * 8) // KKᵀ and Pᵀ temporaries
			tensor.PUpdateNaiveSlab(ks.P[si], s.RowLo, k, a, lambda)
			ks.Dev.LaunchPhase("outer_kk", device.PhaseOptimizer, rn, rn*8)
			ks.Dev.LaunchPhase("p_sub_scale", device.PhaseOptimizer, 2*rn, 3*rn*8)
			ks.Dev.LaunchPhase("p_transpose", device.PhaseOptimizer, 0, 2*rn*8)
			ks.Dev.LaunchPhase("p_symmetrize", device.PhaseOptimizer, rn, 3*rn*8)
			ks.Dev.Free(2 * rn * 8)
		}
	})
}

// QuasiLRFactor is the batch-size factor applied to the weight increment
// (Eq. 2 and the Figure 4 ablation).
type QuasiLRFactor int

// The three factors compared in Figure 4.
const (
	FactorOne QuasiLRFactor = iota
	FactorSqrtBS
	FactorLinearBS
)

// Apply returns the numeric factor for batch size bs.
func (f QuasiLRFactor) Apply(bs int) float64 {
	switch f {
	case FactorSqrtBS:
		return math.Sqrt(float64(bs))
	case FactorLinearBS:
		return float64(bs)
	default:
		return 1
	}
}

// String names the factor as in Figure 4's legend.
func (f QuasiLRFactor) String() string {
	switch f {
	case FactorSqrtBS:
		return "sqrt(bs)"
	case FactorLinearBS:
		return "bs"
	default:
		return "1"
	}
}
