package fleet

import (
	"fmt"
	"testing"

	"fekf/internal/online"
)

// benchFleet builds a warm fleet in the given covariance mode, ready to
// step: frames ingested and queues drained.
func benchFleet(tb testing.TB, replicas int, pshard bool) (*Fleet, func()) {
	tb.Helper()
	cfg := Config{Seed: 42, Gate: online.GateConfig{Enabled: false}, PShard: pshard}
	ds, f := newTestFleet(tb, replicas, cfg)
	for i := 0; i < 4*replicas; i++ {
		if ok, err := f.Ingest(ds.Snapshots[i%ds.Len()]); !ok || err != nil {
			tb.Fatalf("ingest %d: %v %v", i, ok, err)
		}
	}
	f.drainAll()
	return f, func() {
		if f.WeightDrift() != 0 || f.PDrift() != 0 {
			tb.Fatalf("drift after benchmark steps: %g / %g", f.WeightDrift(), f.PDrift())
		}
	}
}

// maxResidentPBytes returns the largest per-replica resident covariance
// footprint — full P for every rank under replication, the biggest slab
// share under sharding.
func maxResidentPBytes(f *Fleet) int64 {
	var m int64
	for _, r := range f.reps {
		if v := r.pBytes.Load(); v > m {
			m = v
		}
	}
	return m
}

// BenchmarkPShardStep pits one sharded lockstep step against its
// replicated twin at 1/2/4 ranks.  Wall time captures the cost of the
// extra P·g exchange collective; the reported P-bytes/rank metric is the
// memory headline — under sharding it shrinks toward 1/R of the full
// covariance while the replicated fleet holds a full copy per rank.
func BenchmarkPShardStep(b *testing.B) {
	for _, mode := range []struct {
		name   string
		pshard bool
	}{{"replicated", false}, {"pshard", true}} {
		for _, n := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/replicas=%d", mode.name, n), func(b *testing.B) {
				f, check := benchFleet(b, n, mode.pshard)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.loop.Step()
				}
				b.StopTimer()
				check()
				b.ReportMetric(float64(maxResidentPBytes(f)), "P-bytes/rank")
			})
		}
	}
}
