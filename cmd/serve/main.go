// Command serve runs the online-learning service: it boots a DeePMD model
// on a bootstrap dataset (or resumes from a checkpoint), starts the
// streaming FEKF trainer and exposes the HTTP API of internal/serve.  With
// -mdclient it also drives a synthetic labelled-frame producer from a
// classical-potential Langevin simulation, so the whole loop — simulate →
// ingest → gate → train → snapshot → serve — runs from one command.
//
// Usage:
//
//	serve -addr 127.0.0.1:8234 -system Cu -mdclient
//	serve -checkpoint ckpt.gob -resume            # continue a previous run
//	serve -replicas 4 -pshard                     # shard P across the fleet
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/fleet"
	"fekf/internal/guard"
	"fekf/internal/md"
	"fekf/internal/obs"
	"fekf/internal/online"
	"fekf/internal/optimize"
	"fekf/internal/serve"
	"fekf/internal/tensor"
)

func main() {
	log.SetFlags(0)
	var (
		addr        = flag.String("addr", "127.0.0.1:8234", "listen address (port 0 = random)")
		system      = flag.String("system", "Cu", "Table-3 system for bootstrap and the MD client")
		bootstrap   = flag.Int("bootstrap", 16, "bootstrap frames generated for normalization")
		bs          = flag.Int("bs", 8, "online minibatch size")
		queueSize   = flag.Int("queue", 256, "ingest queue capacity")
		queuePol    = flag.String("queue-policy", "block", "block | drop-new | drop-old")
		window      = flag.Int("window", 256, "replay FIFO window size")
		reservoir   = flag.Int("reservoir", 256, "replay reservoir size")
		snapEvery   = flag.Int("snapshot-every", 4, "steps between published model snapshots")
		ckptPath    = flag.String("checkpoint", "", "combined checkpoint path (enables periodic checkpoints)")
		ckptEvery   = flag.Int("checkpoint-every", 16, "steps between periodic checkpoints")
		ckptKeep    = flag.Int("checkpoint-keep", 3, "checksummed checkpoint ring generations retained around -checkpoint (0 = legacy single file)")
		resume      = flag.Bool("resume", false, "resume from -checkpoint if it exists (newest valid ring generation, quarantining corrupt ones)")
		guardOn     = flag.Bool("guard", true, "numerical health sentinel with automatic rollback to the newest valid checkpoint generation on divergence")
		stepTimeout = flag.Duration("step-timeout", 0, "fleet step watchdog: abort and reconcile a rank stuck longer than this (0 = off; fleet backend only)")
		degraded503 = flag.Bool("degraded-503", false, "GET /healthz answers 503 while the guard reports a degraded state")
		gateOn      = flag.Bool("gate", true, "ALKPU-style uncertainty gating of ingested frames")
		gateThresh  = flag.Float64("gate-threshold", 0.5, "gate threshold (fraction of the EMA score)")
		trainIdle   = flag.Bool("train-idle", false, "keep training on the replay buffer while no frames arrive")
		workers     = flag.Int("workers", 0, "host worker pool size (0 = GOMAXPROCS)")
		mdClient    = flag.Bool("mdclient", false, "run the synthetic MD frame producer against this server")
		mdFrames    = flag.Int("md-frames", 0, "frames the MD client sends (0 = until shutdown)")
		mdPeriod    = flag.Duration("md-period", 100*time.Millisecond, "delay between MD client frames")
		replicas    = flag.Int("replicas", 1, "fleet replica count (>1 runs the replicated online fleet)")
		pshardOn    = flag.Bool("pshard", false, "shard the Kalman covariance (P) across the fleet replicas instead of replicating it — ~1/R resident P per replica at the cost of one extra allgather per measurement (implies the fleet backend)")
		autoscale   = flag.Bool("autoscale", false, "let the fleet conductor scale the live replica count from queue pressure (implies the fleet backend)")
		replMin     = flag.Int("replicas-min", 1, "autoscaler floor on the live replica count")
		replMax     = flag.Int("replicas-max", 0, "autoscaler ceiling on the live replica count (0 = max(replicas, 3))")
		shardPol    = flag.String("shard-policy", "round-robin", "fleet ingest sharding: round-robin | hash")
		transport   = flag.String("transport", "chan", "fleet ring transport: chan (in-process) | tcp (loopback sockets)")
		metricsAddr = flag.String("metrics-addr", "", "standalone metrics listener address serving /metrics, /v1/trace and pprof (\"\" = main listener only)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the main listener")
		traceBuf    = flag.Int("trace-buf", 128, "step traces retained for GET /v1/trace")
		seed        = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	tensor.SetWorkers(*workers)

	shard, err := fleet.ParseShardPolicy(*shardPol)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	if *replMax == 0 {
		*replMax = max(*replicas, 3)
	}
	policy, err := online.ParsePolicy(*queuePol)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(*traceBuf)

	var be interface {
		serve.Backend
		Start()
	}
	if *replicas > 1 || *autoscale || *pshardOn {
		be, err = buildFleet(*system, *bootstrap, *seed, *resume, *ckptPath, *ckptKeep, fleet.Config{
			Replicas:        *replicas,
			PShard:          *pshardOn,
			ShardPolicy:     shard,
			BatchSize:       *bs,
			QueueSize:       *queueSize,
			QueuePolicy:     policy,
			WindowSize:      *window,
			ReservoirSize:   *reservoir,
			SnapshotEvery:   *snapEvery,
			CheckpointPath:  *ckptPath,
			CheckpointEvery: *ckptEvery,
			CheckpointKeep:  *ckptKeep,
			Guard:           guard.SentinelConfig{Enabled: *guardOn},
			StepTimeout:     *stepTimeout,
			Gate:            gateConfig(*gateOn, *gateThresh),
			TrainIdle:       *trainIdle,
			Seed:            *seed,
			Transport:       *transport,
			Autoscale:       fleet.AutoscaleConfig{Enabled: *autoscale, Min: *replMin, Max: *replMax},
			Metrics:         fleet.NewMetrics(reg),
			Trace:           tracer,
		})
	} else {
		be, err = buildTrainer(*system, *bootstrap, *seed, *resume, *ckptPath, *ckptKeep, online.TrainerConfig{
			BatchSize:       *bs,
			QueueSize:       *queueSize,
			QueuePolicy:     policy,
			WindowSize:      *window,
			ReservoirSize:   *reservoir,
			SnapshotEvery:   *snapEvery,
			CheckpointPath:  *ckptPath,
			CheckpointEvery: *ckptEvery,
			CheckpointKeep:  *ckptKeep,
			Guard:           guard.SentinelConfig{Enabled: *guardOn},
			Gate:            gateConfig(*gateOn, *gateThresh),
			TrainIdle:       *trainIdle,
			Seed:            *seed,
			Metrics:         online.NewMetrics(reg),
			Trace:           tracer,
		})
	}
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	be.Start()

	// Catch the shutdown signal before the listener is up, so a signal
	// that arrives as soon as "serving" is logged still drains gracefully.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	srv := serve.New(be, serve.Config{Addr: *addr, Metrics: reg, Trace: tracer, EnablePprof: *pprofOn, Degraded503: *degraded503})
	if err := srv.Start(); err != nil {
		log.Fatalf("serve: %v", err)
	}
	if *metricsAddr != "" {
		maddr, err := startMetricsServer(*metricsAddr, reg, tracer)
		if err != nil {
			log.Fatalf("serve: metrics listener: %v", err)
		}
		log.Printf("metrics on http://%s (GET /metrics, GET /v1/trace, /debug/pprof/)", maddr)
	}
	pDesc := ""
	if *pshardOn {
		pDesc = ", sharded P"
	}
	log.Printf("serving %s on http://%s with %d replica(s)%s  (POST /v1/frames, POST /v1/predict, GET /healthz, GET /v1/stats, GET /metrics, GET /v1/trace)",
		*system, srv.Addr(), *replicas, pDesc)

	stopClient := make(chan struct{})
	clientDone := make(chan struct{})
	if *mdClient {
		go func() {
			defer close(clientDone)
			if err := runMDClient(srv.Addr(), *system, *seed, *mdFrames, *mdPeriod, stopClient); err != nil {
				log.Printf("serve: md client: %v", err)
			}
		}()
	} else {
		close(clientDone)
	}

	<-sig
	log.Println("shutting down...")
	close(stopClient)
	<-clientDone
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatalf("serve: shutdown: %v", err)
	}
	st := be.Stats()
	log.Printf("drained: %d steps, λ=%.6f, %d frames accepted, %d gated out, %d checkpoints",
		st.Steps, st.Lambda, st.FramesAccepted, st.FramesGatedOut, st.Checkpoints)
}

// startMetricsServer binds a standalone ops listener serving the metrics
// registry, the step tracer and pprof — free of the API server's request
// timeouts, so long profile captures work.
func startMetricsServer(addr string, reg *obs.Registry, tr *obs.Tracer) (string, error) {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("GET /v1/trace", tr.Handler())
	obs.MountPprof(mux)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, mux)
	return ln.Addr().String(), nil
}

func gateConfig(on bool, threshold float64) online.GateConfig {
	g := online.DefaultGateConfig()
	g.Enabled = on
	g.Threshold = threshold
	return g
}

// loadNewest loads the newest valid ring generation of the checkpoint at
// path when resume is asked for, logging the corrupt generations it
// quarantines.  A nil checkpoint without error means there is nothing to
// resume from and the caller bootstraps fresh.
func loadNewest[T any](resume bool, path string, keep int) (*T, uint64, error) {
	if !resume || path == "" {
		return nil, 0, nil
	}
	ck, seq, quarantined, err := guard.LoadNewest[T](path, keep)
	for _, q := range quarantined {
		log.Printf("quarantined corrupt checkpoint generation: %s.corrupt", q)
	}
	if errors.Is(err, guard.ErrNoCheckpoint) || os.IsNotExist(err) {
		log.Printf("no checkpoint at %s, bootstrapping fresh", path)
		return nil, 0, nil
	}
	return ck, seq, err
}

// ingestAll seeds a fresh backend's stream with the bootstrap frames, so
// training can begin before the first external frame arrives.
func ingestAll(be serve.Backend, ds *dataset.Dataset) error {
	for _, s := range ds.Snapshots {
		if _, err := be.Ingest(s); err != nil {
			return err
		}
	}
	return nil
}

// buildTrainer resumes from the checkpoint when asked (and present) — the
// newest valid ring generation, quarantining corrupt ones — else bootstraps
// a fresh model from a small generated dataset.
func buildTrainer(system string, bootstrap int, seed int64, resume bool, ckptPath string, ckptKeep int, tcfg online.TrainerConfig) (*online.Trainer, error) {
	dev := device.New("gpu0", device.A100())
	ck, seq, err := loadNewest[online.Checkpoint](resume, ckptPath, ckptKeep)
	if err != nil {
		return nil, err
	}
	if ck != nil {
		tr, err := online.ResumeTrainer(ck, dev, tcfg)
		if err != nil {
			return nil, err
		}
		log.Printf("resumed from %s (generation %d): step %d, λ=%.6f", ckptPath, seq, tr.Stats().Steps, tr.Stats().Lambda)
		return tr, nil
	}
	ds, m, opt, err := bootstrapModel(system, bootstrap, seed, dev)
	if err != nil {
		return nil, err
	}
	tr, err := online.NewTrainer(m, opt, ds, tcfg)
	if err != nil {
		return nil, err
	}
	if err := ingestAll(tr, ds); err != nil {
		return nil, err
	}
	log.Printf("bootstrapped %s: %d frames, %d-atom cells, %d parameters",
		system, ds.Len(), ds.Snapshots[0].NumAtoms(), m.NumParams())
	return tr, nil
}

// bootstrapModel generates a small labelled dataset and an initialized tiny
// model + paper-default FEKF for it — the shared boot path of the single
// trainer and the fleet.
func bootstrapModel(system string, bootstrap int, seed int64, dev *device.Device) (*dataset.Dataset, *deepmd.Model, *optimize.FEKF, error) {
	if bootstrap < 4 {
		bootstrap = 4
	}
	ds, err := dataset.Generate(system, dataset.GenOptions{
		Snapshots: bootstrap, SampleEvery: 5, EquilSteps: 40, Tiny: true, Seed: seed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	sys := deepmd.SnapshotSystem(ds, &ds.Snapshots[0])
	cfg := deepmd.TinyConfig(sys)
	cfg.Seed = seed
	m, err := deepmd.NewModel(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := m.InitFromDataset(ds); err != nil {
		return nil, nil, nil, err
	}
	m.Level = deepmd.OptAll
	m.Dev = dev
	opt := optimize.NewFEKF()
	opt.KCfg = opt.KCfg.WithOpt3()
	return ds, m, opt, nil
}

// buildFleet resumes a fleet from its checkpoint when asked (and present)
// — the newest valid ring generation, quarantining corrupt ones — else
// bootstraps a fresh model and replicates it across fcfg.Replicas replicas,
// seeding the sharded stream with the bootstrap frames.
func buildFleet(system string, bootstrap int, seed int64, resume bool, ckptPath string, ckptKeep int, fcfg fleet.Config) (*fleet.Fleet, error) {
	ck, seq, err := loadNewest[fleet.Checkpoint](resume, ckptPath, ckptKeep)
	if err != nil {
		return nil, err
	}
	if ck != nil {
		fl, err := fleet.Resume(ck, fcfg)
		if err != nil {
			return nil, err
		}
		st := fl.Stats()
		log.Printf("resumed fleet from %s (generation %d): %d replicas, step %d, λ=%.6f",
			ckptPath, seq, fl.Replicas(), st.Steps, st.Lambda)
		return fl, nil
	}
	ds, m, opt, err := bootstrapModel(system, bootstrap, seed, device.New("gpu0", device.A100()))
	if err != nil {
		return nil, err
	}
	fl, err := fleet.New(m, opt, ds, fcfg)
	if err != nil {
		return nil, err
	}
	if err := ingestAll(fl, ds); err != nil {
		return nil, err
	}
	log.Printf("bootstrapped %s fleet: %d replicas (%s sharding), %d frames, %d-atom cells, %d parameters",
		system, fl.Replicas(), fcfg.ShardPolicy, ds.Len(), ds.Snapshots[0].NumAtoms(), m.NumParams())
	return fl, nil
}

// runMDClient drives a Langevin simulation with the classical label
// potential and streams labelled frames to the server over HTTP, issuing a
// prediction for every frame it sends (the simulate → ingest → train →
// serve loop).
func runMDClient(addr, system string, seed int64, maxFrames int, period time.Duration, stop <-chan struct{}) error {
	spec, err := md.GetSystem(system)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed + 7))
	sys, pot := spec.TinyBuild()
	T := spec.Temperatures[0]
	sys.InitVelocities(T, rng)
	lg := md.NewLangevin(pot, spec.TimeStep, T, rng)
	lg.Run(sys, 40, 0, nil)

	client := &http.Client{Timeout: 30 * time.Second}
	base := "http://" + addr
	for n := 0; maxFrames == 0 || n < maxFrames; n++ {
		select {
		case <-stop:
			return nil
		default:
		}
		lg.Run(sys, 5, 0, nil)
		e, f := md.ComputeAll(pot, sys)
		frame := serve.FramePayload{
			Pos:         append([]float64(nil), sys.Pos...),
			Box:         sys.Box,
			Types:       append([]int(nil), sys.Types...),
			Energy:      e,
			Forces:      f,
			Temperature: T,
		}
		var fresp serve.FramesResponse
		if err := postJSON(client, base+"/v1/frames", serve.FramesRequest{Frames: []serve.FramePayload{frame}}, &fresp); err != nil {
			return fmt.Errorf("frame %d: %w", n, err)
		}
		var presp serve.PredictResponse
		err := postJSON(client, base+"/v1/predict", serve.PredictRequest{Pos: frame.Pos, Box: frame.Box, Types: frame.Types}, &presp)
		if err != nil {
			return fmt.Errorf("predict %d: %w", n, err)
		}
		if n%16 == 0 {
			log.Printf("md client: frame %d  E(label)=%.3f  E(model)=%.3f  snapshot step %d",
				n, e, presp.Energy, presp.SnapshotStep)
		}
		if period > 0 {
			select {
			case <-stop:
				return nil
			case <-time.After(period):
			}
		}
	}
	return nil
}

func postJSON(client *http.Client, url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		var e serve.ErrorResponse
		json.NewDecoder(r.Body).Decode(&e)
		return fmt.Errorf("%s: %s (%s)", url, r.Status, e.Error)
	}
	return json.NewDecoder(r.Body).Decode(resp)
}
