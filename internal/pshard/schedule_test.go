package pshard

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"fekf/internal/cluster"
	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/optimize"
)

// TestReplicatedR1MatchesFEKFStep pins the replicated distributed step
// over a 1-rank ring to the single-device FEKF.Step: bitwise weights, λ,
// update count and every P block after 2 steps, pipelined and serial.
func TestReplicatedR1MatchesFEKFStep(t *testing.T) {
	ds, base := stepSetup(t)
	idx := []int{0, 1, 2, 3, 4, 5}
	const steps = 2
	for _, pipeline := range []bool{false, true} {
		single := optimize.NewFEKF()
		single.KCfg = shardedCfg()
		single.Pipeline = pipeline
		m := base.CloneFor(device.New("single", device.A100()))
		for s := 0; s < steps; s++ {
			if _, err := single.Step(m, ds, idx); err != nil {
				t.Fatal(err)
			}
		}

		dp := cluster.NewDataParallelFEKF(1, base)
		dp.FEKF.KCfg = shardedCfg()
		dp.FEKF.Pipeline = pipeline
		for s := 0; s < steps; s++ {
			if _, err := dp.Step(ds, idx); err != nil {
				t.Fatal(err)
			}
		}
		// The trainer keeps its replica states private: it pins the
		// weights, and the direct rank step below pins λ and P too.
		if !bitsEqual(dp.Model().Params.FlattenValues(), m.Params.FlattenValues()) {
			t.Fatalf("pipeline=%v: R=1 trainer weights diverge from FEKF.Step", pipeline)
		}

		ks := single.State()
		w, rks := runReplicatedR1(t, ds, base, pipeline, steps, idx)
		if !bitsEqual(w, m.Params.FlattenValues()) {
			t.Fatalf("pipeline=%v: R=1 RankStep weights diverge from FEKF.Step", pipeline)
		}
		if math.Float64bits(rks.Lambda) != math.Float64bits(ks.Lambda) || rks.Updates != ks.Updates {
			t.Fatalf("pipeline=%v: λ/updates %v/%d vs FEKF.Step %v/%d",
				pipeline, rks.Lambda, rks.Updates, ks.Lambda, ks.Updates)
		}
		for b := range ks.P {
			if !bitsEqual(rks.P[b].Data, ks.P[b].Data) {
				t.Fatalf("pipeline=%v: P block %d diverges from FEKF.Step", pipeline, b)
			}
		}
	}
}

// runReplicatedR1 drives the replicated rank step on a 1-rank ring with a
// full KalmanState and returns the weights and the state.
func runReplicatedR1(t *testing.T, ds *dataset.Dataset, base *deepmd.Model, pipeline bool, steps int, idx []int) ([]float64, *optimize.KalmanState) {
	t.Helper()
	ring := cluster.NewRing(1, cluster.RoCE25())
	dev := device.New("r1", device.A100())
	m := base.CloneFor(dev)
	ks := optimize.NewKalmanState(shardedCfg(), m.Params.LayerSizes(), dev)
	f := optimize.NewFEKF()
	f.Pipeline = pipeline
	p := f.StepParams(len(idx), ds.Snapshots[idx[0]].NumAtoms())
	for s := 0; s < steps; s++ {
		if _, err := optimize.RankStep(ring, 0, m, ks, p, ds, idx, nil); err != nil {
			t.Fatal(err)
		}
	}
	return m.Params.FlattenValues(), ks
}

// spanLog records every span a step schedule emits, per rank.
type spanLog struct {
	mu    sync.Mutex
	names map[int][]string
}

func (l *spanLog) Span(rank int, name string, _ time.Time, _ time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.names[rank] = append(l.names[rank], name)
}

// split separates one rank's span sequence into the synchronous phases,
// in order, and the drain count (drains end on background goroutines, so
// their position in the sequence is not deterministic when pipelined).
func (l *spanLog) split(rank int) (seq []string, drains int) {
	for _, n := range l.names[rank] {
		if n == "drain" {
			drains++
			continue
		}
		seq = append(seq, n)
	}
	return seq, drains
}

// wantSpans is one rank's synchronous span sequence for one step with g
// force groups; gain is the span list of a single measurement update.
func wantSpans(g int, gain []string) []string {
	seq := []string{"backward", "allreduce"}
	seq = append(seq, gain...)
	seq = append(seq, "backward")
	for i := 0; i < g; i++ {
		seq = append(seq, "backward", "allreduce")
		seq = append(seq, gain...)
	}
	return append(seq, "allreduce")
}

// TestStepSpans pins the trace spans of the replicated and the sharded
// step schedule: names, order and per-step counts on every rank —
// including an idle rank, which still runs every collective.  The
// benchmark derives its gain, drain and exchange layer metrics from them.
func TestStepSpans(t *testing.T) {
	ds, base := stepSetup(t)
	idx := []int{0, 1, 2} // 4 ranks, 3 frames: one rank is idle
	const ranks, steps = 4, 2
	f := optimize.NewFEKF()
	cfg := shardedCfg()
	assign := Partition(optimize.SplitBlocks(base.Params.LayerSizes(), cfg.BlockSize), ranks)

	for _, sharded := range []bool{false, true} {
		for _, pipeline := range []bool{false, true} {
			log := &spanLog{names: map[int][]string{}}
			f.Pipeline = pipeline
			p := f.StepParams(len(idx), ds.Snapshots[idx[0]].NumAtoms())
			p.Spans = log
			ring := cluster.NewRing(ranks, cluster.RoCE25())
			models := make([]*deepmd.Model, ranks)
			covs := make([]optimize.Covariance, ranks)
			for r := range models {
				dev := device.New(fmt.Sprintf("span%d", r), device.A100())
				models[r] = base.CloneFor(dev)
				if sharded {
					covs[r] = Over(optimize.NewSlabState(cfg, assign.Blocks, assign.Owners[r], dev), r, assign.Segments(), ring)
				} else {
					covs[r] = optimize.NewKalmanState(cfg, models[r].Params.LayerSizes(), dev)
				}
			}
			for s := 0; s < steps; s++ {
				var wg sync.WaitGroup
				errs := make([]error, ranks)
				for r := 0; r < ranks; r++ {
					wg.Add(1)
					go func(rank int) {
						defer wg.Done()
						_, errs[rank] = optimize.RankStep(ring, rank, models[rank], covs[rank], p,
							ds, chunk(idx, rank, ranks), nil)
					}(r)
				}
				wg.Wait()
				for r, err := range errs {
					if err != nil {
						t.Fatalf("sharded=%v step %d rank %d: %v", sharded, s, r, err)
					}
				}
			}

			gain := []string{"gain"}
			if sharded {
				gain = []string{"gain", "exchange", "gain"}
			}
			var want []string
			for s := 0; s < steps; s++ {
				want = append(want, wantSpans(f.ForceGroups, gain)...)
			}
			for r := 0; r < ranks; r++ {
				seq, drains := log.split(r)
				if !reflect.DeepEqual(seq, want) {
					t.Fatalf("sharded=%v pipeline=%v rank %d spans\n got  %v\n want %v", sharded, pipeline, r, seq, want)
				}
				if wantDrains := steps * (1 + f.ForceGroups); drains != wantDrains {
					t.Fatalf("sharded=%v pipeline=%v rank %d: %d drain spans, want %d", sharded, pipeline, r, drains, wantDrains)
				}
			}
		}
	}
}
