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
//	serve -smoke                                  # self-test and exit
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fekf/internal/cluster"
	"fekf/internal/cluster/tcptransport"
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
		workers     = flag.Int("workers", 0, "host worker pool size (0 = GOMAXPROCS / FEKF_WORKERS)")
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
		peers       = flag.String("peers", "", "comma-separated ring listen addresses, rank order; runs this process as one rank of a cross-process TCP ring (own slot may be host:0)")
		rank        = flag.Int("rank", 0, "this process's rank within -peers")
		metricsAddr = flag.String("metrics-addr", "", "standalone metrics listener address serving /metrics, /v1/trace and pprof (\"\" = main listener only)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the main listener")
		traceBuf    = flag.Int("trace-buf", 128, "step traces retained for GET /v1/trace")

		seed    = flag.Int64("seed", 1, "random seed")
		chaos   = flag.Bool("chaos", false, "with -smoke: poison the weights mid-run and require the guard to roll back automatically while predictions keep answering")
		smoke   = flag.Bool("smoke", false, "self-test: random port, MD frames, predicts, /metrics scrape, graceful shutdown, kill→restart resume (with -replicas N>1: fleet kill/revive + drift checks)")
		smokeTr = flag.Bool("smoke-transport", false, "2-process TCP ring self-test: spawn a peer process, run deterministic allreduces over real sockets, compare checksums bitwise, and exit")
	)
	flag.Parse()
	tensor.SetWorkers(*workers)

	shard, err := fleet.ParseShardPolicy(*shardPol)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	if *replMax == 0 {
		*replMax = *replicas
		if *replMax < 3 {
			*replMax = 3
		}
	}
	ascfg := fleet.AutoscaleConfig{Enabled: *autoscale, Min: *replMin, Max: *replMax}

	if *peers != "" {
		crc, err := runRingWorker(*peers, *rank, *seed, -1)
		if err != nil {
			log.Fatalf("serve: ring worker: %v", err)
		}
		fmt.Printf("TRANSPORT_SUM %016x\n", crc)
		return
	}

	if *smokeTr {
		if err := runTransportSmoke(*seed); err != nil {
			log.Fatalf("serve: TRANSPORT SMOKE FAILED: %v", err)
		}
		fmt.Println("TRANSPORT SMOKE OK")
		return
	}

	if *smoke {
		if *autoscale {
			err = runAutoscaleSmoke(*system, *seed, *transport)
		} else if *replicas > 1 || *pshardOn {
			n := *replicas
			if n < 2 {
				// The sharded smoke kills and revives a replica, so it needs
				// company even when -replicas was left at 1.
				n = 3
			}
			err = runFleetSmoke(*system, *seed, n, shard, *transport, *pshardOn, *chaos)
		} else {
			err = runSmoke(*system, *seed, *chaos)
		}
		if err != nil {
			log.Fatalf("serve: SMOKE FAILED: %v", err)
		}
		fmt.Println("SMOKE OK")
		return
	}

	policy, err := online.ParsePolicy(*queuePol)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(*traceBuf)

	var be serve.Backend
	if *replicas > 1 || *autoscale || *pshardOn {
		fcfg := fleet.Config{
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
			Autoscale:       ascfg,
			Metrics:         fleet.NewMetrics(reg),
			Trace:           tracer,
		}
		fl, err := buildFleet(*system, *bootstrap, *seed, *resume, *ckptPath, *ckptKeep, fcfg)
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		fl.Start()
		be = fl
	} else {
		tcfg := online.TrainerConfig{
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
		}
		tr, err := buildTrainer(*system, *bootstrap, *seed, *resume, *ckptPath, *ckptKeep, tcfg)
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		tr.Start()
		be = tr
	}

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

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
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

// scrapeMetrics fetches /metrics, verifies every sample line parses as
// `name[{labels}] value` with a float value, and returns the per-family
// sample counts (histogram series keep their _bucket/_sum/_count names).
func scrapeMetrics(client *http.Client, base string) (map[string]int, error) {
	r, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", r.Status)
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	samples := map[string]int{}
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("/metrics: unparseable sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			return nil, fmt.Errorf("/metrics: bad value in %q: %v", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		samples[name]++
	}
	return samples, nil
}

// requireMetrics scrapes /metrics and fails unless every named series has
// at least one parseable sample.
func requireMetrics(client *http.Client, base string, series ...string) (map[string]int, error) {
	samples, err := scrapeMetrics(client, base)
	if err != nil {
		return nil, err
	}
	for _, s := range series {
		if samples[s] == 0 {
			return samples, fmt.Errorf("/metrics is missing %s (got %d series)", s, len(samples))
		}
	}
	return samples, nil
}

func gateConfig(on bool, threshold float64) online.GateConfig {
	g := online.DefaultGateConfig()
	g.Enabled = on
	g.Threshold = threshold
	return g
}

// buildTrainer resumes from the checkpoint when asked (and present) — the
// newest valid ring generation, quarantining corrupt ones — else bootstraps
// a fresh model from a small generated dataset.
func buildTrainer(system string, bootstrap int, seed int64, resume bool, ckptPath string, ckptKeep int, tcfg online.TrainerConfig) (*online.Trainer, error) {
	dev := device.New("gpu0", device.A100())
	if resume && ckptPath != "" {
		ck, seq, quarantined, err := guard.LoadNewest[online.Checkpoint](ckptPath, ckptKeep)
		for _, q := range quarantined {
			log.Printf("quarantined corrupt checkpoint generation: %s.corrupt", q)
		}
		switch {
		case errors.Is(err, guard.ErrNoCheckpoint) || os.IsNotExist(err):
			log.Printf("no checkpoint at %s, bootstrapping fresh", ckptPath)
		case err != nil:
			return nil, err
		default:
			tr, err := online.ResumeTrainer(ck, dev, tcfg)
			if err != nil {
				return nil, err
			}
			log.Printf("resumed from %s (generation %d): step %d, λ=%.6f", ckptPath, seq, tr.Stats().Steps, tr.Stats().Lambda)
			return tr, nil
		}
	}
	ds, m, opt, err := bootstrapModel(system, bootstrap, seed, dev)
	if err != nil {
		return nil, err
	}
	tr, err := online.NewTrainer(m, opt, ds, tcfg)
	if err != nil {
		return nil, err
	}
	// seed the stream with the bootstrap frames so training can begin
	// before the first external frame arrives
	for _, s := range ds.Snapshots {
		if _, err := tr.Ingest(s); err != nil {
			return nil, err
		}
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
	if resume && ckptPath != "" {
		ck, seq, quarantined, err := guard.LoadNewest[fleet.Checkpoint](ckptPath, ckptKeep)
		for _, q := range quarantined {
			log.Printf("quarantined corrupt checkpoint generation: %s.corrupt", q)
		}
		switch {
		case errors.Is(err, guard.ErrNoCheckpoint) || os.IsNotExist(err):
			log.Printf("no checkpoint at %s, bootstrapping fresh", ckptPath)
		case err != nil:
			return nil, err
		default:
			fl, err := fleet.Resume(ck, fcfg)
			if err != nil {
				return nil, err
			}
			st := fl.Stats()
			log.Printf("resumed fleet from %s (generation %d): %d replicas, step %d, λ=%.6f",
				ckptPath, seq, fl.Replicas(), st.Steps, st.Lambda)
			return fl, nil
		}
	}
	ds, m, opt, err := bootstrapModel(system, bootstrap, seed, device.New("gpu0", device.A100()))
	if err != nil {
		return nil, err
	}
	fl, err := fleet.New(m, opt, ds, fcfg)
	if err != nil {
		return nil, err
	}
	for _, s := range ds.Snapshots {
		if _, err := fl.Ingest(s); err != nil {
			return nil, err
		}
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

// runBurstClient floods /v1/frames with a small set of labelled MD frames
// as fast as the HTTP round-trip allows, until stop closes.  Unlike
// runMDClient it hoists frame generation out of the loop: propagating the
// MD system and running a batched predict per frame costs about as much
// as a training step, which caps queue occupancy far below the autoscale
// scale-up band no matter how many such producers run.
func runBurstClient(addr, system string, seed int64, stop <-chan struct{}) error {
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
	frames := make([]serve.FramePayload, 0, 8)
	for i := 0; i < cap(frames); i++ {
		lg.Run(sys, 5, 0, nil)
		e, f := md.ComputeAll(pot, sys)
		frames = append(frames, serve.FramePayload{
			Pos:         append([]float64(nil), sys.Pos...),
			Box:         sys.Box,
			Types:       append([]int(nil), sys.Types...),
			Energy:      e,
			Forces:      f,
			Temperature: T,
		})
	}

	client := &http.Client{Timeout: 30 * time.Second}
	base := "http://" + addr
	for n := 0; ; n++ {
		select {
		case <-stop:
			return nil
		default:
		}
		var fresp serve.FramesResponse
		req := serve.FramesRequest{Frames: []serve.FramePayload{frames[n%len(frames)]}}
		if err := postJSON(client, base+"/v1/frames", req, &fresp); err != nil {
			return fmt.Errorf("burst frame %d: %w", n, err)
		}
	}
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

// runSmoke is the CI self-test: boot on a random port, stream MD frames,
// check every endpoint, shut down gracefully, then resume from the final
// checkpoint and verify the λ schedule position and step counter survived.
// With chaos, a NaN is poisoned into the weights mid-run and the guard must
// roll the trainer back to the newest ring generation automatically, with
// predictions answering finitely throughout.
func runSmoke(system string, seed int64, chaos bool) error {
	dir, err := os.MkdirTemp("", "fekf-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ckpt := dir + "/online.ckpt"

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(64)
	tcfg := online.TrainerConfig{
		BatchSize: 4, QueueSize: 64, WindowSize: 64, ReservoirSize: 64,
		SnapshotEvery: 2, CheckpointPath: ckpt, CheckpointEvery: 4, CheckpointKeep: 3,
		Guard: guard.SentinelConfig{Enabled: true},
		Gate:  gateConfig(true, 0.5), TrainIdle: true, Seed: seed,
		Metrics: online.NewMetrics(reg), Trace: tracer,
	}
	if chaos {
		tcfg.Chaos = guard.ChaosConfig{PoisonStep: 6}
	}
	tr, err := buildTrainer(system, 8, seed, false, "", 0, tcfg)
	if err != nil {
		return err
	}
	tr.Start()
	srv := serve.New(tr, serve.Config{Addr: "127.0.0.1:0", Metrics: reg, Trace: tracer})
	if err := srv.Start(); err != nil {
		return err
	}
	base := "http://" + srv.Addr()
	client := &http.Client{Timeout: 30 * time.Second}
	log.Printf("smoke: serving on %s", base)

	// healthz answers immediately
	hr, err := client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", hr.Status)
	}

	// stream a dozen labelled MD frames with interleaved predictions
	if err := runMDClient(srv.Addr(), system, seed, 12, 0, make(chan struct{})); err != nil {
		return err
	}

	// wait for the trainer to take steps and write a periodic checkpoint
	deadline := time.Now().Add(90 * time.Second)
	var st serve.StatsResponse
	for {
		if err := getJSON(client, base+"/v1/stats", &st); err != nil {
			return err
		}
		if st.Steps >= 4 && st.Checkpoints >= 1 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("trainer made no progress: %+v", st.Stats)
		}
		time.Sleep(200 * time.Millisecond)
	}
	log.Printf("smoke: %d steps, λ=%.6f, %d accepted, %d gated out, %d predict batches",
		st.Steps, st.Lambda, st.FramesAccepted, st.FramesGatedOut, st.PredictBatches)

	if chaos {
		// The poison lands at step 6; the sentinel must catch it, roll back
		// to the newest ring generation and train on — with /v1/predict
		// still answering finite physics off the clean snapshot.
		for {
			if err := getJSON(client, base+"/v1/stats", &st); err != nil {
				return err
			}
			if st.Guard != nil && st.Guard.Rollbacks >= 1 && st.Steps > st.Guard.RollbackStep {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("chaos poison never rolled back: %+v", st.Guard)
			}
			time.Sleep(200 * time.Millisecond)
		}
		if err := runMDClient(srv.Addr(), system, seed+1, 2, 0, make(chan struct{})); err != nil {
			return fmt.Errorf("predict after rollback: %w", err)
		}
		if _, err := requireMetrics(client, base,
			"fekf_guard_divergence_total", "fekf_guard_rollback_total",
			"fekf_checkpoint_ring_generation"); err != nil {
			return err
		}
		log.Printf("chaos smoke: divergence at step %d rolled back to generation %d (step %d), training resumed",
			st.Guard.LastStep, st.Guard.RollbackGeneration, st.Guard.RollbackStep)
	}

	// the Prometheus exposition carries the core trainer/serving families
	samples, err := requireMetrics(client, base,
		"fekf_train_step_seconds_count", "fekf_train_step_seconds_bucket",
		"fekf_ingest_queue_depth", "fekf_train_steps_total",
		"fekf_http_requests_total", "fekf_http_request_seconds_count")
	if err != nil {
		return err
	}
	// the step tracer recorded phase timelines with non-zero durations
	var tresp obs.TraceResponse
	if err := getJSON(client, base+"/v1/trace", &tresp); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if len(tresp.Steps) == 0 {
		return fmt.Errorf("/v1/trace recorded no steps")
	}
	sawStep := false
	for _, stepTr := range tresp.Steps {
		for _, sp := range stepTr.Spans {
			if sp.Name == "step" && sp.DurNs > 0 {
				sawStep = true
			}
		}
	}
	if !sawStep {
		return fmt.Errorf("/v1/trace has no non-zero step span: %+v", tresp.Steps)
	}
	log.Printf("smoke: /metrics exposed %d series, /v1/trace holds %d step timelines", len(samples), len(tresp.Steps))

	// graceful shutdown drains and writes the final checkpoint
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	stopped := tr.Stats()

	// kill→restart: resume from the newest ring generation and verify the
	// schedule position survived
	ck, _, _, err := guard.LoadNewest[online.Checkpoint](ckpt, 3)
	if err != nil {
		return err
	}
	tr2, err := online.ResumeTrainer(ck, device.New("gpu1", device.A100()), tcfg)
	if err != nil {
		return err
	}
	resumed := tr2.Stats()
	if resumed.Steps != stopped.Steps || resumed.Lambda != stopped.Lambda {
		return fmt.Errorf("resume mismatch: steps %d→%d, λ %v→%v",
			stopped.Steps, resumed.Steps, stopped.Lambda, resumed.Lambda)
	}
	log.Printf("smoke: resumed at step %d with identical λ=%.6f", resumed.Steps, resumed.Lambda)
	return nil
}

// runFleetSmoke is the replicated-fleet CI self-test: boot an N-replica
// fleet behind the server, stream MD frames at it, require lockstep steps
// with exactly zero weight/P drift, kill a replica and prove predict
// availability and survivor consistency, rejoin it via checkpoint
// catch-up, shut down gracefully and resume the whole fleet from its
// checkpoint.  With pshard the fleet shards the covariance instead of
// replicating it, and the smoke additionally requires the /v1/stats pshard
// row to tile the full P across the ranks and the per-rank resident-bytes
// gauges to be exported.  With chaos the conductor's weights are poisoned
// mid-run and the guard must auto-rollback the whole fleet to the newest
// ring generation while predictions keep answering.
func runFleetSmoke(system string, seed int64, replicas int, shard fleet.ShardPolicy, transport string, pshard bool, chaos bool) error {
	dir, err := os.MkdirTemp("", "fekf-fleet-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ckpt := dir + "/fleet.ckpt"

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(64)
	fcfg := fleet.Config{
		Replicas: replicas, ShardPolicy: shard, PShard: pshard,
		BatchSize: 2, MinFrames: 2, QueueSize: 64, WindowSize: 64, ReservoirSize: 64,
		SnapshotEvery: 1, CheckpointPath: ckpt, CheckpointEvery: 4, CheckpointKeep: 3,
		Guard: guard.SentinelConfig{Enabled: true},
		// Generous watchdog: it arms on every step but must never fire on a
		// loaded CI machine unless a rank genuinely wedges.
		StepTimeout: 60 * time.Second,
		Gate:        gateConfig(true, 0.5), TrainIdle: true, Seed: seed,
		Transport: transport,
		Metrics:   fleet.NewMetrics(reg), Trace: tracer,
	}
	if chaos {
		fcfg.Chaos = guard.ChaosConfig{PoisonStep: 6}
	}
	fl, err := buildFleet(system, 8, seed, false, "", 0, fcfg)
	if err != nil {
		return err
	}
	fl.Start()
	srv := serve.New(fl, serve.Config{Addr: "127.0.0.1:0", Metrics: reg, Trace: tracer})
	if err := srv.Start(); err != nil {
		return err
	}
	base := "http://" + srv.Addr()
	client := &http.Client{Timeout: 30 * time.Second}
	if transport == "" {
		transport = "chan"
	}
	pMode := "replicated P"
	if pshard {
		pMode = "sharded P"
	}
	log.Printf("fleet smoke: %d replicas (%s sharding, %s ring transport, %s) on %s", replicas, shard, transport, pMode, base)

	hr, err := client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", hr.Status)
	}

	// stream labelled MD frames with interleaved predictions
	if err := runMDClient(srv.Addr(), system, seed, 12, 0, make(chan struct{})); err != nil {
		return err
	}

	// require lockstep progress, a periodic checkpoint, and zero drift
	waitStats := func(cond func(serve.StatsResponse) bool, what string) (serve.StatsResponse, error) {
		deadline := time.Now().Add(120 * time.Second)
		var st serve.StatsResponse
		for {
			if err := getJSON(client, base+"/v1/stats", &st); err != nil {
				return st, err
			}
			if cond(st) {
				return st, nil
			}
			if time.Now().After(deadline) {
				return st, fmt.Errorf("timed out waiting for %s: %+v (fleet %+v)", what, st.Stats, st.Fleet)
			}
			time.Sleep(200 * time.Millisecond)
		}
	}
	st, err := waitStats(func(st serve.StatsResponse) bool {
		return st.Steps >= 4 && st.Checkpoints >= 1
	}, "fleet steps + checkpoint")
	if err != nil {
		return err
	}
	if st.Fleet == nil {
		return fmt.Errorf("/v1/stats has no fleet section")
	}
	if st.Fleet.Live != replicas {
		return fmt.Errorf("only %d of %d replicas live", st.Fleet.Live, replicas)
	}
	if st.Fleet.WeightDrift != 0 || st.Fleet.PDrift != 0 {
		return fmt.Errorf("replica drift after %d steps: weights %g, P %g",
			st.Steps, st.Fleet.WeightDrift, st.Fleet.PDrift)
	}
	if st.Fleet.Transport.Kind != transport || st.Fleet.Transport.BytesSent == 0 {
		return fmt.Errorf("/v1/stats transport rows wrong for %s ring: %+v", transport, st.Fleet.Transport)
	}
	log.Printf("fleet smoke: %d lockstep steps, λ=%.6f, drift 0/0, %d ring ops (%d modeled B; %d measured B over %s)",
		st.Steps, st.Lambda, st.Fleet.RingOps, st.Fleet.RingWireBytes, st.Fleet.Transport.BytesSent, st.Fleet.Transport.Kind)
	if pshard {
		ps := st.Fleet.PShard
		if ps == nil {
			return fmt.Errorf("/v1/stats has no pshard row in sharded mode")
		}
		if ps.Ranks != replicas {
			return fmt.Errorf("pshard row reports %d ranks, want %d", ps.Ranks, replicas)
		}
		var sum int64
		for _, b := range ps.ResidentBytesPerRank {
			if b <= 0 || b >= ps.TotalBytes {
				return fmt.Errorf("per-rank resident P %d B is not a strict share of %d B", b, ps.TotalBytes)
			}
			sum += b
		}
		if sum != ps.TotalBytes {
			return fmt.Errorf("rank shares sum to %d B, full P is %d B — slabs lost or duplicated", sum, ps.TotalBytes)
		}
		log.Printf("fleet smoke: P sharded over %d ranks (%d B total, imbalance %.3f, %d exchange B/step)",
			ps.Ranks, ps.TotalBytes, ps.ImbalanceRatio, ps.ExchangeBytesPerStep)
	}

	// the exposition covers trainer, fleet, autoscaler-slot and transport
	// families while the fleet trains under load
	metricWants := []string{
		"fekf_fleet_step_seconds_count", "fekf_fleet_step_seconds_bucket",
		"fekf_ingest_queue_depth", "fekf_fleet_live_replicas",
		"fekf_transport_sent_bytes_total", "fekf_http_requests_total",
		"fekf_p_resident_bytes"}
	if pshard {
		metricWants = append(metricWants, "fekf_pshard_shards", "fekf_pshard_exchange_bytes")
	}
	samples, err := requireMetrics(client, base, metricWants...)
	if err != nil {
		return err
	}
	// the step tracer shows every collective phase with non-zero duration
	var tresp obs.TraceResponse
	if err := getJSON(client, base+"/v1/trace", &tresp); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	need := map[string]bool{"backward": false, "allreduce": false, "gain": false, "drain": false}
	if pshard {
		// The P·g exchange collective only exists in sharded steps.
		need["exchange"] = false
	}
	for _, stepTr := range tresp.Steps {
		for _, sp := range stepTr.Spans {
			if done, tracked := need[sp.Name]; tracked && !done && sp.DurNs > 0 {
				need[sp.Name] = true
			}
		}
	}
	for phase, seen := range need {
		if !seen {
			return fmt.Errorf("/v1/trace has no non-zero %q span across %d steps", phase, len(tresp.Steps))
		}
	}
	log.Printf("fleet smoke: /metrics exposed %d series; /v1/trace holds %d timelines with backward/allreduce/gain/drain spans",
		len(samples), len(tresp.Steps))

	if chaos {
		// The conductor's poison lands at step 6; the guard must roll every
		// replica back to the newest ring generation and keep the fleet in
		// lockstep with zero drift afterwards.
		st, err = waitStats(func(st serve.StatsResponse) bool {
			return st.Guard != nil && st.Guard.Rollbacks >= 1 && st.Steps > st.Guard.RollbackStep
		}, "chaos rollback")
		if err != nil {
			return err
		}
		if st.Fleet.WeightDrift != 0 || st.Fleet.PDrift != 0 {
			return fmt.Errorf("fleet drifted after rollback: %g / %g", st.Fleet.WeightDrift, st.Fleet.PDrift)
		}
		if err := runMDClient(srv.Addr(), system, seed+1, 2, 0, make(chan struct{})); err != nil {
			return fmt.Errorf("predict after rollback: %w", err)
		}
		if _, err := requireMetrics(client, base,
			"fekf_guard_divergence_total", "fekf_guard_rollback_total",
			"fekf_checkpoint_ring_generation"); err != nil {
			return err
		}
		log.Printf("fleet chaos smoke: divergence at step %d rolled back to generation %d (step %d), drift 0/0",
			st.Guard.LastStep, st.Guard.RollbackGeneration, st.Guard.RollbackStep)
	}

	// kill a replica: predicts must keep answering, survivors must keep
	// stepping with zero drift
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := fl.Kill(ctx, 1); err != nil {
		return fmt.Errorf("kill: %w", err)
	}
	spec, err := md.GetSystem(system)
	if err != nil {
		return err
	}
	sys, _ := spec.TinyBuild()
	var presp serve.PredictResponse
	if err := postJSON(client, base+"/v1/predict",
		serve.PredictRequest{Pos: sys.Pos, Box: sys.Box, Types: sys.Types}, &presp); err != nil {
		return fmt.Errorf("predict after kill: %w", err)
	}
	atKill := st.Steps
	st, err = waitStats(func(st serve.StatsResponse) bool {
		return st.Fleet != nil && st.Fleet.Live == replicas-1 && st.Steps >= atKill+2
	}, "survivor progress after kill")
	if err != nil {
		return err
	}
	if st.Fleet.WeightDrift != 0 || st.Fleet.PDrift != 0 {
		return fmt.Errorf("survivors drifted after kill: %g / %g", st.Fleet.WeightDrift, st.Fleet.PDrift)
	}
	log.Printf("fleet smoke: killed replica 1, survivors at step %d with drift 0/0, predicts answered", st.Steps)

	// rejoin via checkpoint catch-up: drift must return to exactly zero
	if err := fl.Revive(ctx, 1); err != nil {
		return fmt.Errorf("revive: %w", err)
	}
	atRevive := st.Steps
	st, err = waitStats(func(st serve.StatsResponse) bool {
		return st.Fleet != nil && st.Fleet.Live == replicas && st.Steps >= atRevive+2
	}, "full-fleet progress after revive")
	if err != nil {
		return err
	}
	if st.Fleet.WeightDrift != 0 || st.Fleet.PDrift != 0 {
		return fmt.Errorf("drift after revive: %g / %g", st.Fleet.WeightDrift, st.Fleet.PDrift)
	}
	log.Printf("fleet smoke: revived replica 1 at step %d, drift 0/0 across %d replicas", st.Steps, replicas)

	// graceful shutdown writes the final fleet checkpoint
	sctx, scancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	stopped := fl.Stats()

	// kill→restart: the resumed fleet holds the schedule position and the
	// bitwise-consistency invariant
	ck, _, _, err := guard.LoadNewest[fleet.Checkpoint](ckpt, 3)
	if err != nil {
		return err
	}
	fl2, err := fleet.Resume(ck, fcfg)
	if err != nil {
		return err
	}
	resumed := fl2.Stats()
	if resumed.Steps != stopped.Steps || resumed.Lambda != stopped.Lambda {
		return fmt.Errorf("fleet resume mismatch: steps %d→%d, λ %v→%v",
			stopped.Steps, resumed.Steps, stopped.Lambda, resumed.Lambda)
	}
	log.Printf("fleet smoke: resumed %d replicas at step %d with identical λ=%.6f",
		fl2.Replicas(), resumed.Steps, resumed.Lambda)
	return nil
}

// runAutoscaleSmoke is the autoscaler CI self-test: boot a single-replica
// fleet with autoscaling to 3, burst MD frames at tiny DropNewest queues
// until the conductor scales up, then quiesce until it scales back down to
// the floor — requiring exactly zero weight/P drift at every observation
// across all membership changes, and predict availability throughout.
// The uncertainty gate stays off so the pressure signal tracks queue
// occupancy alone: a trained-up gate rejects most frames and its
// cumulative accept rate would suppress pressure into the dead-band
// (the accept-rate weighting itself is covered by the deterministic
// controller tests in internal/fleet).
func runAutoscaleSmoke(system string, seed int64, transport string) error {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(64)
	fcfg := fleet.Config{
		Replicas: 1, BatchSize: 2, MinFrames: 2,
		QueueSize: 8, QueuePolicy: online.DropNewest,
		WindowSize: 64, ReservoirSize: 64, SnapshotEvery: 1,
		Gate: gateConfig(false, 0), Seed: seed, Transport: transport,
		Autoscale: fleet.AutoscaleConfig{
			Enabled: true, Min: 1, Max: 3,
			Interval:   20 * time.Millisecond,
			UpCooldown: 50 * time.Millisecond, DownCooldown: 200 * time.Millisecond,
		},
		Metrics: fleet.NewMetrics(reg), Trace: tracer,
	}
	fl, err := buildFleet(system, 8, seed, false, "", 0, fcfg)
	if err != nil {
		return err
	}
	fl.Start()
	srv := serve.New(fl, serve.Config{Addr: "127.0.0.1:0", Metrics: reg, Trace: tracer})
	if err := srv.Start(); err != nil {
		return err
	}
	base := "http://" + srv.Addr()
	client := &http.Client{Timeout: 30 * time.Second}
	if transport == "" {
		transport = "chan"
	}
	log.Printf("autoscale smoke: 1 live replica of %d slots (band [1,3], %s ring transport) on %s",
		fl.Replicas(), transport, base)

	// waitScale polls /v1/stats until cond holds, requiring the autoscale
	// row to be present and the drift gauges to read exactly 0 throughout.
	waitScale := func(cond func(serve.StatsResponse) bool, what string) (serve.StatsResponse, error) {
		deadline := time.Now().Add(120 * time.Second)
		var st serve.StatsResponse
		for {
			if err := getJSON(client, base+"/v1/stats", &st); err != nil {
				return st, err
			}
			if st.Fleet == nil || st.Fleet.Autoscale == nil {
				return st, fmt.Errorf("/v1/stats has no autoscale row")
			}
			if st.Fleet.WeightDrift != 0 || st.Fleet.PDrift != 0 {
				return st, fmt.Errorf("drift during %s: weights %g, P %g",
					what, st.Fleet.WeightDrift, st.Fleet.PDrift)
			}
			if cond(st) {
				return st, nil
			}
			if time.Now().After(deadline) {
				return st, fmt.Errorf("timed out waiting for %s: %+v", what, st.Fleet.Autoscale)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// burst phase: two flat-out producers overwhelm the 8-slot queues
	stopBurst := make(chan struct{})
	burstErr := make(chan error, 2)
	for p := 0; p < 2; p++ {
		go func(p int) {
			burstErr <- runBurstClient(srv.Addr(), system, seed+int64(p), stopBurst)
		}(p)
	}
	st, err := waitScale(func(st serve.StatsResponse) bool {
		// Requiring a healthy frame count alongside Live>=2 proves the
		// burst sustains the scaled-up state: the 8 bootstrap frames
		// alone can trigger a transient scale-up before the producers
		// finish pre-generating their frames.
		as := st.Fleet.Autoscale
		return as.ScaleUps >= 1 && st.Fleet.Live >= 2 && st.Steps >= 2 &&
			st.FramesQueued >= 64
	}, "scale-up under burst")
	close(stopBurst)
	for p := 0; p < 2; p++ {
		if cerr := <-burstErr; cerr != nil && err == nil {
			err = fmt.Errorf("burst producer: %w", cerr)
		}
	}
	if err != nil {
		return err
	}
	log.Printf("autoscale smoke: scaled up to %d live at step %d (pressure %.3f, reason %q), drift 0/0",
		st.Fleet.Live, st.Steps, st.Fleet.Autoscale.Pressure, st.Fleet.Autoscale.LastReason)

	// quiet phase: drained queues must shrink the fleet back to the floor,
	// with predictions still answered along the way
	spec, err := md.GetSystem(system)
	if err != nil {
		return err
	}
	sys, _ := spec.TinyBuild()
	var presp serve.PredictResponse
	if err := postJSON(client, base+"/v1/predict",
		serve.PredictRequest{Pos: sys.Pos, Box: sys.Box, Types: sys.Types}, &presp); err != nil {
		return fmt.Errorf("predict during scale-down: %w", err)
	}
	st, err = waitScale(func(st serve.StatsResponse) bool {
		return st.Fleet.Autoscale.ScaleDowns >= 1 && st.Fleet.Live == 1
	}, "scale-down after quiesce")
	if err != nil {
		return err
	}
	log.Printf("autoscale smoke: scaled down to %d live at step %d (%d ups / %d downs over %d evals), drift 0/0",
		st.Fleet.Live, st.Steps, st.Fleet.Autoscale.ScaleUps, st.Fleet.Autoscale.ScaleDowns, st.Fleet.Autoscale.Evals)

	// the autoscale cycle left its mark on the exposition
	samples, err := requireMetrics(client, base,
		"fekf_fleet_autoscale_evals_total", "fekf_fleet_scale_ups_total",
		"fekf_fleet_scale_downs_total", "fekf_autoscale_pressure",
		"fekf_fleet_revives_total", "fekf_fleet_kills_total")
	if err != nil {
		return err
	}
	log.Printf("autoscale smoke: /metrics exposed %d series including the autoscale counters", len(samples))

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	final := fl.Stats()
	if final.LastError != "" {
		return fmt.Errorf("fleet recorded error during the autoscale cycle: %s", final.LastError)
	}
	log.Printf("autoscale smoke: drained at step %d, λ=%.6f, %d accepted, %d gated out",
		final.Steps, final.Lambda, final.FramesAccepted, final.FramesGatedOut)
	return nil
}

// The cross-process transport smoke's fixed workload: every rank runs
// ringRounds deterministic allreduces of ringN elements and folds the
// reduced vectors into one checksum — allreduce leaves identical data on
// every rank, so the checksums must match bitwise across processes.
const (
	ringRounds = 6
	ringN      = 512
	ringID     = "serve-transport-smoke"
)

// runRingWorker joins a cross-process TCP ring as one rank: bind the
// rank's listen address (host:0 allocates a port, announced on stdout as
// "TRANSPORT_ADDR <addr>"), connect the ring, run the deterministic
// allreduce workload and return its checksum.  cutAt >= 0 severs the
// rank's outgoing connection before that round, forcing a live reconnect.
func runRingWorker(peersCSV string, rank int, seed int64, cutAt int) (uint64, error) {
	peers := strings.Split(peersCSV, ",")
	size := len(peers)
	if size < 2 {
		return 0, fmt.Errorf("ring needs at least 2 peers, got %q", peersCSV)
	}
	if rank < 0 || rank >= size {
		return 0, fmt.Errorf("rank %d out of range for %d peers", rank, size)
	}
	ln, err := tcptransport.Listen(peers[rank])
	if err != nil {
		return 0, err
	}
	fmt.Printf("TRANSPORT_ADDR %s\n", ln.Addr())
	next := peers[(rank+1)%size]
	ep := tcptransport.NewEndpoint(rank, size, ln, next, tcptransport.Options{RingID: ringID})
	return ringWorkload(ep, rank, seed, cutAt)
}

// ringWorkload runs the fixed allreduce sequence on one endpoint and
// checksums the reduced vectors.  Each rank's contribution is derived from
// (seed, rank, round) alone, so any process can reproduce its share.
func ringWorkload(ep *tcptransport.Endpoint, rank int, seed int64, cutAt int) (uint64, error) {
	ring := cluster.NewRingOver(ep, cluster.RoCE25())
	defer ring.Close()
	data := make([]float64, ringN)
	var crc uint64
	for round := 0; round < ringRounds; round++ {
		rng := rand.New(rand.NewSource(seed + int64(rank) + 977*int64(round)))
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		if round == cutAt {
			ep.CutConn(rank)
		}
		if err := ring.Allreduce(rank, data); err != nil {
			return 0, fmt.Errorf("round %d: %w", round, err)
		}
		for _, v := range data {
			crc = crc*1099511628211 + math.Float64bits(v)
		}
	}
	return crc, nil
}

// runTransportSmoke is the 2-process TCP ring self-test: spawn this same
// binary as rank 1, exchange listener addresses over stdout, run the
// deterministic allreduce workload over real sockets — with a mid-run
// connection cut on rank 0 to exercise the reconnect path — and require
// bitwise-identical checksums from both processes.
func runTransportSmoke(seed int64) error {
	ln0, err := tcptransport.Listen("")
	if err != nil {
		return err
	}
	addr0 := ln0.Addr().String()

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe,
		"-peers", addr0+",127.0.0.1:0",
		"-rank", "1",
		"-seed", fmt.Sprint(seed))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawn peer: %w", err)
	}
	defer cmd.Process.Kill()

	// The peer announces its listener before connecting the ring.
	sc := bufio.NewScanner(stdout)
	var addr1 string
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "TRANSPORT_ADDR "); ok {
			addr1 = a
			break
		}
	}
	if addr1 == "" {
		return fmt.Errorf("peer never announced its address: %v", sc.Err())
	}
	log.Printf("transport smoke: rank 0 on %s, peer rank 1 on %s (pid %d)", addr0, addr1, cmd.Process.Pid)

	ep := tcptransport.NewEndpoint(0, 2, ln0, addr1, tcptransport.Options{RingID: ringID})
	crc0, err := ringWorkload(ep, 0, seed, ringRounds/2)
	st := ep.Stats()
	if err != nil {
		return fmt.Errorf("rank 0 workload: %w", err)
	}

	var crc1 uint64
	haveSum := false
	for sc.Scan() {
		if s, ok := strings.CutPrefix(sc.Text(), "TRANSPORT_SUM "); ok {
			if _, err := fmt.Sscanf(s, "%x", &crc1); err != nil {
				return fmt.Errorf("parse peer checksum %q: %w", s, err)
			}
			haveSum = true
			break
		}
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("peer process: %w", err)
	}
	if !haveSum {
		return fmt.Errorf("peer never reported a checksum")
	}
	if crc0 != crc1 {
		return fmt.Errorf("checksums differ across processes: %016x vs %016x — the wire is not bitwise transparent", crc0, crc1)
	}
	if st.BytesSent == 0 || st.Msgs == 0 {
		return fmt.Errorf("no measured wire traffic: %+v", st)
	}
	if st.Reconnects < 1 {
		return fmt.Errorf("mid-run cut produced no reconnect: %+v", st)
	}
	log.Printf("transport smoke: %d rounds × %d elems bitwise identical across 2 processes (checksum %016x); %d B sent, %d msgs, %d reconnects",
		ringRounds, ringN, crc0, st.BytesSent, st.Msgs, st.Reconnects)
	return nil
}

func getJSON(client *http.Client, url string, v any) error {
	r, err := client.Get(url)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, r.Status)
	}
	return json.NewDecoder(r.Body).Decode(v)
}
