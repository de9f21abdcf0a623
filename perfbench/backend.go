package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/fleet"
	"fekf/internal/guard"
	"fekf/internal/obs"
	"fekf/internal/online"
	"fekf/internal/optimize"
	"fekf/internal/serve"
)

// The cmd/serve defaults every workload runs with.
const (
	system        = "Cu"
	bootstrap     = 16 // frames generated for normalization at boot
	batchSize     = 8
	snapshotEvery = 4
	gateThreshold = 0.5
	replicas      = 2
)

// workload names one benchmark configuration.
type workload struct {
	name   string
	fleet  bool // replicated fleet instead of the single online trainer
	pshard bool // shard the Kalman covariance across the fleet's ranks
	// predictRate and frameRate are the mean rates (1/s) of the serve
	// phase's two open-loop streams.
	predictRate, frameRate float64
}

var workloads = map[string]workload{
	"serve_mixed":  {name: "serve_mixed", predictRate: 50, frameRate: 10},
	"fleet_repl":   {name: "fleet_repl", fleet: true, predictRate: 25, frameRate: 20},
	"fleet_pshard": {name: "fleet_pshard", fleet: true, pshard: true, predictRate: 25, frameRate: 20},
}

// instance is one running backend behind an HTTP server on loopback.
type instance struct {
	tr   *online.Trainer // single-trainer backend (nil for a fleet)
	fl   *fleet.Fleet    // fleet backend (nil for the single trainer)
	be   serve.Backend
	srv  *serve.Server
	base string
	// dev is the device the prototype model was built on: the single
	// trainer trains (and its snapshots predict) on it; fleet replicas
	// clone onto private devices, so a fleet leaves it idle.
	dev *device.Device
	log *stepLog
}

// setup builds and starts one backend the way cmd/serve does — bootstrap
// dataset, model init, FEKF, trainer or fleet, ingest of the preloaded
// frames, Start, HTTP server listening — and returns once the first
// training step has completed, with the time all of that took.
func setup(w workload, seed int64, fit []dataset.Snapshot, tracer, bench *obs.Tracer) (*instance, time.Duration, error) {
	t0 := time.Now()
	x := &instance{dev: device.New("gpu0", device.A100()), log: newStepLog()}
	x.log.bench = bench
	ds, err := dataset.Generate(system, dataset.GenOptions{
		Snapshots: bootstrap, SampleEvery: 5, EquilSteps: 40, Tiny: true, Seed: seed,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("bootstrap dataset: %w", err)
	}
	cfg := deepmd.TinyConfig(deepmd.SnapshotSystem(ds, &ds.Snapshots[0]))
	cfg.Seed = seed
	m, err := deepmd.NewModel(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("model: %w", err)
	}
	if err := m.InitFromDataset(ds); err != nil {
		return nil, 0, fmt.Errorf("model init: %w", err)
	}
	m.Level = deepmd.OptAll
	m.Dev = x.dev
	opt := optimize.NewFEKF()
	opt.KCfg = opt.KCfg.WithOpt3()

	gate := online.DefaultGateConfig()
	gate.Threshold = gateThreshold
	reg := obs.NewRegistry()
	if w.fleet {
		x.fl, err = fleet.New(m, opt, ds, fleet.Config{
			Replicas:      replicas,
			PShard:        w.pshard,
			BatchSize:     batchSize,
			QueuePolicy:   online.Block,
			SnapshotEvery: snapshotEvery,
			Guard:         guard.SentinelConfig{Enabled: true},
			Gate:          gate,
			TrainIdle:     true,
			Seed:          seed,
			Transport:     "chan",
			OnStep:        x.log.onStep,
			Metrics:       fleet.NewMetrics(reg),
			Trace:         tracer,
		})
		x.be = x.fl
	} else {
		x.tr, err = online.NewTrainer(m, opt, ds, online.TrainerConfig{
			BatchSize:     batchSize,
			QueuePolicy:   online.Block,
			SnapshotEvery: snapshotEvery,
			Guard:         guard.SentinelConfig{Enabled: true},
			Gate:          gate,
			TrainIdle:     true,
			Seed:          seed,
			OnStep:        x.log.onStep,
			Metrics:       online.NewMetrics(reg),
			Trace:         tracer,
		})
		x.be = x.tr
	}
	if err != nil {
		return nil, 0, fmt.Errorf("backend: %w", err)
	}
	x.log.stats = x.be.Stats
	x.log.snapshot = x.be.Snapshot
	// Bootstrap frames first, as cmd/serve seeds its stream, then the
	// fit frames; all are queued before Start, so the first drain admits
	// every one of them before step 1.
	for i, s := range append(append([]dataset.Snapshot(nil), ds.Snapshots...), fit...) {
		i0 := time.Now()
		ok, err := x.be.Ingest(s)
		rec := bench.Begin()
		rec.Span(-1, "bench_ingest", i0, time.Since(i0))
		rec.End(int64(i))
		if err != nil || !ok {
			return nil, 0, fmt.Errorf("preload frame %d: accepted=%v err=%v", i, ok, err)
		}
	}
	if x.fl != nil {
		x.fl.Start()
	} else {
		x.tr.Start()
	}
	x.srv = serve.New(x.be, serve.Config{Addr: "127.0.0.1:0", Metrics: reg, Trace: tracer})
	if err := x.srv.Start(); err != nil {
		x.be.Stop(context.Background())
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	x.base = "http://" + x.srv.Addr()
	select {
	case <-x.log.first:
	case <-time.After(2 * time.Minute):
		return nil, 0, errors.Join(fmt.Errorf("no training step within 2m of Start"), x.shutdown())
	}
	return x, time.Since(t0), nil
}

// shutdown stops the server and then the backend, waiting for both.
func (x *instance) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return x.srv.Shutdown(ctx)
}

// residentP returns the largest per-rank resident covariance footprint.
func (x *instance) residentP() int64 {
	if x.fl == nil {
		return x.tr.Stats().PResidentBytes
	}
	var most int64
	for _, r := range x.fl.FleetStats().Replica {
		if r.PResidentBytes > most {
			most = r.PResidentBytes
		}
	}
	return most
}
