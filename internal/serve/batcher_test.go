package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/md"
	"fekf/internal/online"
)

// batcherSetup returns a batcher over a fixed model snapshot plus systems
// to predict on.
func batcherSetup(t *testing.T, maxBatch int, window time.Duration, workers int) (*Batcher, *dataset.Dataset, *deepmd.Model) {
	t.Helper()
	ds, m, _ := tinyCu(t)
	snap := &online.ModelSnapshot{Model: m, Step: 7, Published: time.Now()}
	b := NewBatcher(func() *online.ModelSnapshot { return snap }, maxBatch, window, workers)
	t.Cleanup(b.Stop)
	return b, ds, m
}

func snapSystem(ds *dataset.Dataset, i int) *md.System {
	s := ds.Snapshots[i]
	return &md.System{Box: s.Box, Pos: s.Pos, Types: s.Types, Species: ds.Species}
}

// A batched prediction must be bitwise identical to a direct single-system
// forward on the same snapshot — batching is an optimization, not a model.
func TestBatcherMatchesDirectForward(t *testing.T) {
	b, ds, m := batcherSetup(t, 8, time.Millisecond, 1)
	res, err := b.Predict(context.Background(), snapSystem(ds, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Step != 7 {
		t.Fatalf("result carries snapshot step %d, want 7", res.Step)
	}
	env, err := deepmd.BuildBatchEnv(m.Cfg, ds, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	out := m.Forward(env, true)
	if res.Energy != out.Energies.Value.Data[0] {
		t.Fatalf("batched energy %v, direct %v", res.Energy, out.Energies.Value.Data[0])
	}
	for i, f := range res.Forces {
		if f != out.Forces.Value.Data[i] {
			t.Fatalf("batched force %d is %v, direct %v", i, f, out.Forces.Value.Data[i])
		}
	}
	out.Graph.Release()
}

// Concurrent predictions submitted within one window must share forward
// passes: with one worker and a generous window, requests coalesce.
func TestBatcherCoalesces(t *testing.T) {
	b, ds, _ := batcherSetup(t, 16, 50*time.Millisecond, 1)
	const n = 6
	var wg sync.WaitGroup
	batches := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := b.Predict(context.Background(), snapSystem(ds, i%ds.Len()))
			if err != nil {
				t.Error(err)
				return
			}
			batches[i] = res.Batch
		}(i)
	}
	wg.Wait()
	if b.Served() != n {
		t.Fatalf("served %d, want %d", b.Served(), n)
	}
	if b.Batches() >= n {
		t.Fatalf("%d forward passes for %d concurrent requests — no coalescing", b.Batches(), n)
	}
	shared := false
	for _, bs := range batches {
		if bs > 1 {
			shared = true
		}
	}
	if !shared {
		t.Fatal("no request reported riding a shared micro-batch")
	}
}

func TestBatcherStopAndContext(t *testing.T) {
	_, ds, m := batcherSetup(t, 4, time.Millisecond, 1)
	snap := &online.ModelSnapshot{Model: m, Published: time.Now()}
	b := NewBatcher(func() *online.ModelSnapshot { return snap }, 4, time.Millisecond, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Predict(ctx, snapSystem(ds, 0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled predict returned %v", err)
	}
	b.Stop()
	if _, err := b.Predict(context.Background(), snapSystem(ds, 0)); !errors.Is(err, ErrStopped) {
		t.Fatalf("predict after Stop returned %v", err)
	}
}

// Predictions against a batcher whose snapshot source has nothing yet must
// fail cleanly, not crash.
func TestBatcherNoSnapshot(t *testing.T) {
	b := NewBatcher(func() *online.ModelSnapshot { return nil }, 4, time.Millisecond, 1)
	defer b.Stop()
	ds, _, _ := tinyCu(t)
	if _, err := b.Predict(context.Background(), snapSystem(ds, 0)); err == nil {
		t.Fatal("predict without a snapshot must error")
	}
}
