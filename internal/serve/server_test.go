package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
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
)

// tinyCu generates the tiny Cu dataset and an initialized model with a
// paper-default FEKF for it.
func tinyCu(t testing.TB) (*dataset.Dataset, *deepmd.Model, *optimize.FEKF) {
	t.Helper()
	ds, err := dataset.Generate("Cu", dataset.GenOptions{
		Snapshots: 16, SampleEvery: 4, EquilSteps: 25, Tiny: true, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := deepmd.SnapshotSystem(ds, &ds.Snapshots[0])
	m, err := deepmd.NewModel(deepmd.TinyConfig(sys))
	if err != nil {
		t.Fatal(err)
	}
	m.Level = deepmd.OptAll
	m.Dev = device.New("serve-test", device.A100())
	if err := m.InitFromDataset(ds); err != nil {
		t.Fatal(err)
	}
	opt := optimize.NewFEKF()
	opt.KCfg = opt.KCfg.WithOpt3()
	return ds, m, opt
}

// startable is a backend the tests start themselves.
type startable interface {
	Backend
	Start()
}

// startServer starts be behind a server bound to a random port; the server
// (and with it the backend) is shut down at cleanup.
func startServer(t *testing.T, be startable, scfg Config) *Server {
	t.Helper()
	be.Start()
	srv := New(be, scfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// serveSetup builds a started trainer + server pair bound to a random port
// and returns the dataset feeding it.  The server is shut down at cleanup.
func serveSetup(t *testing.T, tcfg online.TrainerConfig, scfg Config) (*dataset.Dataset, *online.Trainer, *Server) {
	t.Helper()
	ds, m, opt := tinyCu(t)
	tr, err := online.NewTrainer(m, opt, ds, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, tr, startServer(t, tr, scfg)
}

// fleetSetup is serveSetup for a fleet backend.
func fleetSetup(t *testing.T, fcfg fleet.Config, scfg Config) (*dataset.Dataset, *fleet.Fleet, *Server) {
	t.Helper()
	ds, m, opt := tinyCu(t)
	fl, err := fleet.New(m, opt, ds, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, fl, startServer(t, fl, scfg)
}

// getJSON GETs url and decodes the body of its 200 answer into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(getBody(t, url)), v); err != nil {
		t.Fatal(err)
	}
}

// waitStats polls /v1/stats until done holds and returns that answer.
func waitStats(t *testing.T, base string, timeout time.Duration, done func(StatsResponse) bool) StatsResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st StatsResponse
		getJSON(t, base+"/v1/stats", &st)
		if done(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("/v1/stats never reached the awaited state: %+v (fleet %+v)", st.Stats, st.Fleet)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// getBody GETs url and returns the body of its 200 answer.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v", url, resp.StatusCode, err)
	}
	return string(body)
}

func postJSON(t *testing.T, url string, body, out any) (int, error) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

func framePayload(ds *dataset.Dataset, i int) FramePayload {
	s := ds.Snapshots[i]
	return FramePayload{
		Pos: s.Pos, Box: s.Box, Types: s.Types,
		Energy: s.Energy, Forces: s.Forces, Temperature: s.Temperature,
	}
}

func TestServerEndpoints(t *testing.T) {
	ds, _, srv := serveSetup(t,
		online.TrainerConfig{BatchSize: 2, SnapshotEvery: 1, TrainIdle: true, Seed: 5,
			Gate: online.GateConfig{Enabled: false}},
		Config{})
	base := "http://" + srv.Addr()

	// healthz
	var health HealthResponse
	getJSON(t, base+"/healthz", &health)
	if health.Status != "ok" || health.System != "Cu" {
		t.Fatalf("healthz: %+v", health)
	}

	// frames ingest
	req := FramesRequest{}
	for i := 0; i < 6; i++ {
		req.Frames = append(req.Frames, framePayload(ds, i))
	}
	var fresp FramesResponse
	code, err := postJSON(t, base+"/v1/frames", req, &fresp)
	if err != nil || code != http.StatusOK {
		t.Fatalf("frames: %d %v", code, err)
	}
	if fresp.Accepted != 6 {
		t.Fatalf("frames accepted %d, want 6", fresp.Accepted)
	}

	// predict once training produced a snapshot (initial snapshot exists
	// immediately, so this cannot hang)
	s := ds.Snapshots[0]
	var presp PredictResponse
	code, err = postJSON(t, base+"/v1/predict",
		PredictRequest{Pos: s.Pos, Box: s.Box, Types: s.Types}, &presp)
	if err != nil || code != http.StatusOK {
		t.Fatalf("predict: %d %v", code, err)
	}
	if len(presp.Forces) != len(s.Forces) {
		t.Fatalf("predict returned %d force components, want %d", len(presp.Forces), len(s.Forces))
	}
	if presp.Energy != presp.Energy {
		t.Fatal("predict returned NaN energy")
	}

	// malformed requests are rejected, not served
	var eresp ErrorResponse
	code, err = postJSON(t, base+"/v1/predict",
		PredictRequest{Pos: s.Pos[:3], Box: s.Box, Types: s.Types}, &eresp)
	if err != nil || code != http.StatusBadRequest {
		t.Fatalf("short predict accepted: %d %v", code, err)
	}
	code, err = postJSON(t, base+"/v1/frames", FramesRequest{}, &eresp)
	if err != nil || code != http.StatusBadRequest {
		t.Fatalf("empty frames accepted: %d %v", code, err)
	}
	badTypes := append([]int(nil), s.Types...)
	badTypes[0] = 99
	code, err = postJSON(t, base+"/v1/predict",
		PredictRequest{Pos: s.Pos, Box: s.Box, Types: badTypes}, &eresp)
	if err != nil || code != http.StatusBadRequest {
		t.Fatalf("out-of-range species accepted: %d %v", code, err)
	}

	// stats reflect the traffic
	var stats StatsResponse
	getJSON(t, base+"/v1/stats", &stats)
	if stats.FrameRequests < 1 || stats.PredictRequests < 1 || stats.FramesQueued < 6 {
		t.Fatalf("stats do not reflect traffic: %+v", stats)
	}
}

// Concurrent predictions against a training server: every response must be
// complete and consistent, and each answered predict runs exactly one
// forward pass.  Run under -race via make ci.
func TestServerConcurrentPredict(t *testing.T) {
	ds, _, srv := serveSetup(t,
		online.TrainerConfig{BatchSize: 2, SnapshotEvery: 1, TrainIdle: true, Seed: 5,
			Gate: online.GateConfig{Enabled: false}},
		Config{})
	base := "http://" + srv.Addr()

	req := FramesRequest{}
	for i := 0; i < 4; i++ {
		req.Frames = append(req.Frames, framePayload(ds, i))
	}
	var fresp FramesResponse
	if code, err := postJSON(t, base+"/v1/frames", req, &fresp); err != nil || code != http.StatusOK {
		t.Fatalf("frames: %d %v", code, err)
	}

	const clients, rounds = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := ds.Snapshots[(c+r)%ds.Len()]
				var presp PredictResponse
				code, err := postJSON(t, base+"/v1/predict",
					PredictRequest{Pos: s.Pos, Box: s.Box, Types: s.Types}, &presp)
				if err != nil || code != http.StatusOK {
					errs <- fmt.Errorf("client %d round %d: %d %v", c, r, code, err)
					return
				}
				if len(presp.Forces) != 3*len(s.Types) || presp.Energy != presp.Energy {
					errs <- fmt.Errorf("client %d round %d: incomplete response", c, r)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var stats StatsResponse
	getJSON(t, base+"/v1/stats", &stats)
	if stats.PredictRequests != clients*rounds || stats.PredictBatches != clients*rounds {
		t.Fatalf("%d predicts ran %d forwards, want %d each", stats.PredictRequests, stats.PredictBatches, clients*rounds)
	}
}

// dropLastAtom returns frame i's configuration without its last atom: a
// second atom count for the same box.
func dropLastAtom(ds *dataset.Dataset, i int) PredictRequest {
	s := ds.Snapshots[i]
	n := len(s.Types) - 1
	return PredictRequest{Pos: s.Pos[:3*n], Box: s.Box, Types: s.Types[:n]}
}

// A served prediction is bitwise the forward pass of the answering
// snapshot, at any atom count: the JSON round trip of a float64 is exact.
func TestServerPredictMatchesDirectForward(t *testing.T) {
	ds, tr, srv := serveSetup(t, online.TrainerConfig{Seed: 5}, Config{})
	base := "http://" + srv.Addr()
	s := ds.Snapshots[0]
	for _, req := range []PredictRequest{
		{Pos: s.Pos, Box: s.Box, Types: s.Types},
		dropLastAtom(ds, 0),
	} {
		var presp PredictResponse
		if code, err := postJSON(t, base+"/v1/predict", req, &presp); err != nil || code != http.StatusOK {
			t.Fatalf("predict (%d atoms): %d %v", len(req.Types), code, err)
		}
		// No frame ever arrives, so the initial snapshot answers every
		// predict.
		snap := tr.Snapshot()
		if presp.SnapshotStep != snap.Step {
			t.Fatalf("answer carries snapshot step %d, want %d", presp.SnapshotStep, snap.Step)
		}
		sys, err := req.System(tr.Species(), tr.Cutoff())
		if err != nil {
			t.Fatal(err)
		}
		env, err := deepmd.BuildEnv(snap.Model.Cfg, []*md.System{sys})
		if err != nil {
			t.Fatal(err)
		}
		out := snap.Model.Forward(env, true)
		if presp.Energy != out.Energies.Value.Data[0] {
			t.Fatalf("%d atoms: served energy %v, direct %v", len(req.Types), presp.Energy, out.Energies.Value.Data[0])
		}
		if len(presp.Forces) != len(out.Forces.Value.Data) {
			t.Fatalf("%d atoms: %d served force components, direct %d", len(req.Types), len(presp.Forces), len(out.Forces.Value.Data))
		}
		for i, f := range presp.Forces {
			if f != out.Forces.Value.Data[i] {
				t.Fatalf("%d atoms: served force %d is %v, direct %v", len(req.Types), i, f, out.Forces.Value.Data[i])
			}
		}
		out.Graph.Release()
	}
}

// A predict whose request is cancelled while every forward slot is taken
// answers 503 without running a forward, and gives back no slot it never
// held.
func TestServerPredictCancelledWaitingForSlot(t *testing.T) {
	ds, _, srv := serveSetup(t, online.TrainerConfig{Seed: 5}, Config{})
	for i := 0; i < cap(srv.slots); i++ {
		srv.slots <- struct{}{}
	}
	s := ds.Snapshots[0]
	body, err := json.Marshal(PredictRequest{Pos: s.Pos, Box: s.Box, Types: s.Types})
	if err != nil {
		t.Fatal(err)
	}
	// Every slot is taken, so the handler can only return through the
	// cancellation, whether it lands before or during the wait.
	ctx, cancel := context.WithCancel(context.Background())
	rr := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		srv.handlePredict(rr, httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body)).WithContext(ctx))
		close(done)
	}()
	cancel()
	<-done
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled predict answered %d: %s", rr.Code, rr.Body)
	}
	if len(srv.slots) != cap(srv.slots) {
		t.Fatalf("cancelled predict released a slot: %d of %d held", len(srv.slots), cap(srv.slots))
	}
	for i := 0; i < cap(srv.slots); i++ {
		<-srv.slots
	}

	var presp PredictResponse
	if code, err := postJSON(t, "http://"+srv.Addr()+"/v1/predict",
		PredictRequest{Pos: s.Pos, Box: s.Box, Types: s.Types}, &presp); err != nil || code != http.StatusOK {
		t.Fatalf("predict with free slots: %d %v", code, err)
	}
	if n := srv.forwardN.Load(); n != 1 {
		t.Fatalf("%d forward passes, want 1 (the cancelled predict runs none)", n)
	}
}

// Before the backend starts it has published no snapshot: a predict is
// answered 503, and the same server answers 200 once the backend runs.
func TestServerPredictBeforeStart(t *testing.T) {
	for _, backend := range []string{"trainer", "fleet"} {
		t.Run(backend, func(t *testing.T) {
			ds, m, opt := tinyCu(t)
			var be startable
			var err error
			if backend == "trainer" {
				be, err = online.NewTrainer(m, opt, ds, online.TrainerConfig{Seed: 5})
			} else {
				be, err = fleet.New(m, opt, ds, fleet.Config{Replicas: 2, Seed: 5})
			}
			if err != nil {
				t.Fatal(err)
			}
			srv := New(be, Config{})
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			base := "http://" + srv.Addr()
			s := ds.Snapshots[0]
			req := PredictRequest{Pos: s.Pos, Box: s.Box, Types: s.Types}

			var e ErrorResponse
			if code, err := postJSON(t, base+"/v1/predict", req, &e); err != nil || code != http.StatusServiceUnavailable {
				t.Fatalf("predict before Start: %d %v %q", code, err, e.Error)
			}
			be.Start()
			var presp PredictResponse
			if code, err := postJSON(t, base+"/v1/predict", req, &presp); err != nil || code != http.StatusOK {
				t.Fatalf("predict after Start: %d %v", code, err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A /v1/frames request with an invalid frame is refused whole: the 400
// leaves every queue as it was, so a client may retry the corrected
// request without counting a frame twice.  The backends are built without
// a prototype frame, so no atom count is locked yet and the request's
// first frame sets the one the rest must match.
func TestServerFramesRejectionIngestsNothing(t *testing.T) {
	for _, backend := range []string{"trainer", "fleet"} {
		t.Run(backend, func(t *testing.T) {
			ds, m, opt := tinyCu(t)
			noProto := &dataset.Dataset{System: ds.System, Species: ds.Species}
			var be startable
			var err error
			gate := online.GateConfig{Enabled: false}
			if backend == "trainer" {
				be, err = online.NewTrainer(m, opt, noProto, online.TrainerConfig{Seed: 5, Gate: gate})
			} else {
				be, err = fleet.New(m, opt, noProto, fleet.Config{Replicas: 2, Seed: 5, Gate: gate})
			}
			if err != nil {
				t.Fatal(err)
			}
			srv := startServer(t, be, Config{})
			if be.NumAtoms() != 0 {
				t.Fatalf("backend without a prototype frame locked %d atoms", be.NumAtoms())
			}
			base := "http://" + srv.Addr()
			good := framePayload(ds, 0)
			shortForces := framePayload(ds, 1)
			shortForces.Forces = shortForces.Forces[:3]
			fewerAtoms := framePayload(ds, 1)
			n := len(fewerAtoms.Types) - 1
			fewerAtoms.Pos, fewerAtoms.Types, fewerAtoms.Forces = fewerAtoms.Pos[:3*n], fewerAtoms.Types[:n], fewerAtoms.Forces[:3*n]

			for _, bad := range []FramePayload{shortForces, fewerAtoms} {
				var e ErrorResponse
				code, err := postJSON(t, base+"/v1/frames", FramesRequest{Frames: []FramePayload{good, bad}}, &e)
				if err != nil || code != http.StatusBadRequest || !strings.Contains(e.Error, "frame 1") {
					t.Fatalf("[good, bad] frames: %d %v %q", code, err, e.Error)
				}
				var stats StatsResponse
				getJSON(t, base+"/v1/stats", &stats)
				if stats.FramesQueued != 0 {
					t.Fatalf("rejected request queued %d frames", stats.FramesQueued)
				}
			}

			var fresp FramesResponse
			if code, err := postJSON(t, base+"/v1/frames", FramesRequest{Frames: []FramePayload{good}}, &fresp); err != nil || code != http.StatusOK {
				t.Fatalf("corrected retry: %d %v", code, err)
			}
			var stats StatsResponse
			getJSON(t, base+"/v1/stats", &stats)
			if fresp.Accepted != 1 || stats.FramesQueued != 1 {
				t.Fatalf("corrected retry accepted %d, queued %d; want 1 and 1", fresp.Accepted, stats.FramesQueued)
			}
		})
	}
}

// A listener that fails under a running server is not lost: Shutdown
// returns its error alongside the drain's.
func TestServerShutdownReportsListenerFailure(t *testing.T) {
	_, _, srv := serveSetup(t, online.TrainerConfig{Seed: 5}, Config{})
	srv.ln.Close()
	select {
	case <-srv.served:
	case <-time.After(10 * time.Second):
		t.Fatal("http.Serve kept running on a closed listener")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	if err == nil || !errors.Is(err, net.ErrClosed) || !strings.Contains(err.Error(), "serve: listener:") {
		t.Fatalf("Shutdown after a listener failure returned %v", err)
	}
}

// Graceful shutdown must stop serving, drain the trainer, and leave the
// final checkpoint behind.
func TestServerGracefulShutdown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "final.ckpt")
	ds, tr, srv := serveSetup(t,
		online.TrainerConfig{BatchSize: 2, CheckpointPath: path, Seed: 5,
			Gate: online.GateConfig{Enabled: false}},
		Config{})
	base := "http://" + srv.Addr()

	req := FramesRequest{}
	for i := 0; i < 4; i++ {
		req.Frames = append(req.Frames, framePayload(ds, i))
	}
	var fresp FramesResponse
	if code, err := postJSON(t, base+"/v1/frames", req, &fresp); err != nil || code != http.StatusOK {
		t.Fatalf("frames: %d %v", code, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := guard.Load[online.Checkpoint](path); err != nil {
		t.Fatalf("final checkpoint missing after shutdown: %v", err)
	}
	if tr.Stats().Steps != tr.Snapshot().Step {
		t.Fatal("final snapshot does not reflect the last training step")
	}
	// the listener is closed: new requests fail
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
}

// The /v1/stats payload must expose the replay-buffer occupancy and gate
// acceptance-rate fields, and they must reconcile with the traffic.
func TestStatsReplayAndGateFields(t *testing.T) {
	ds, _, srv := serveSetup(t,
		online.TrainerConfig{BatchSize: 2, WindowSize: 8, ReservoirSize: 8, Seed: 5,
			Gate: online.GateConfig{Enabled: false}},
		Config{})
	base := "http://" + srv.Addr()

	req := FramesRequest{}
	for i := 0; i < 6; i++ {
		req.Frames = append(req.Frames, framePayload(ds, i))
	}
	var fresp FramesResponse
	if code, err := postJSON(t, base+"/v1/frames", req, &fresp); err != nil || code != http.StatusOK {
		t.Fatalf("frames: %d %v", code, err)
	}

	// wait for the trainer loop to drain the queue through the gate
	stats := waitStats(t, base, 30*time.Second, func(st StatsResponse) bool {
		return st.FramesAccepted >= 6
	})
	if stats.ReplayCapacity != 16 {
		t.Fatalf("replay capacity %d, want 16 (window 8 + reservoir 8)", stats.ReplayCapacity)
	}
	if stats.ReplaySize == 0 || stats.ReplayWindowLen == 0 {
		t.Fatalf("replay occupancy fields empty: %+v", stats.Stats)
	}
	want := float64(stats.ReplaySize) / float64(stats.ReplayCapacity)
	if stats.ReplayOccupancy != want {
		t.Fatalf("replay occupancy %v, want %v", stats.ReplayOccupancy, want)
	}
	if stats.GateAcceptRate != 1 {
		t.Fatalf("gate accept rate %v with the gate disabled, want 1", stats.GateAcceptRate)
	}
	// raw JSON carries the new field names
	var raw map[string]any
	getJSON(t, base+"/v1/stats", &raw)
	for _, key := range []string{"replay_occupancy", "replay_capacity", "replay_window_len", "replay_reservoir_len", "gate_accept_rate", "p_resident_bytes"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("/v1/stats JSON missing %q", key)
		}
	}
	if _, ok := raw["fleet"]; ok {
		t.Fatal("single-trainer stats carry a fleet section")
	}
}

// The same server must front a fleet backend: ingest shards across the
// replicas, predictions ride the snapshot router, and /v1/stats grows the
// per-replica fleet section.
func TestServerFleetBackend(t *testing.T) {
	ds, _, srv := fleetSetup(t, fleet.Config{
		Replicas: 3, BatchSize: 2, SnapshotEvery: 1, TrainIdle: true, Seed: 5,
		Gate: online.GateConfig{Enabled: false}, Transport: "tcp",
		// Autoscaling enabled but held at the band floor (the trickle of 9
		// frames into 256-slot queues never nears the scale-up edge), so
		// the stats row is exercised without membership churn.
		Autoscale: fleet.AutoscaleConfig{Enabled: true, Min: 3, Max: 4},
	}, Config{})
	base := "http://" + srv.Addr()

	req := FramesRequest{}
	for i := 0; i < 9; i++ {
		req.Frames = append(req.Frames, framePayload(ds, i))
	}
	var fresp FramesResponse
	if code, err := postJSON(t, base+"/v1/frames", req, &fresp); err != nil || code != http.StatusOK {
		t.Fatalf("frames: %d %v", code, err)
	}
	if fresp.Accepted != 9 {
		t.Fatalf("fleet accepted %d frames, want 9", fresp.Accepted)
	}

	s := ds.Snapshots[0]
	var presp PredictResponse
	if code, err := postJSON(t, base+"/v1/predict",
		PredictRequest{Pos: s.Pos, Box: s.Box, Types: s.Types}, &presp); err != nil || code != http.StatusOK {
		t.Fatalf("predict: %d %v", code, err)
	}
	if presp.Energy != presp.Energy || len(presp.Forces) != len(s.Forces) {
		t.Fatal("fleet predict returned an incomplete response")
	}

	stats := waitStats(t, base, 60*time.Second, func(st StatsResponse) bool {
		return st.Steps >= 1
	})
	if stats.Fleet == nil {
		t.Fatal("/v1/stats has no fleet section for a fleet backend")
	}
	// 4 slots are pre-allocated (Autoscale.Max), 3 of them live.
	if stats.Fleet.Replicas != 4 || stats.Fleet.Live != 3 || len(stats.Fleet.Replica) != 4 {
		t.Fatalf("fleet stats: %+v", stats.Fleet)
	}
	if stats.Fleet.ShardPolicy != "round-robin" {
		t.Fatalf("fleet shard policy %q", stats.Fleet.ShardPolicy)
	}
	if stats.Fleet.WeightDrift != 0 || stats.Fleet.PDrift != 0 {
		t.Fatalf("fleet drift over HTTP: %g / %g", stats.Fleet.WeightDrift, stats.Fleet.PDrift)
	}
	var queued int64
	for _, rs := range stats.Fleet.Replica {
		queued += rs.FramesQueued
	}
	if queued != 9 {
		t.Fatalf("per-replica rows account %d queued frames, want 9", queued)
	}
	// The fleet ran its ring over TCP loopback: /v1/stats must report the
	// measured transport counters alongside the modeled ring accounting.
	tr := stats.Fleet.Transport
	if tr.Kind != "tcp" {
		t.Fatalf("transport kind %q over HTTP, want tcp", tr.Kind)
	}
	if tr.BytesSent == 0 || tr.BytesRecv == 0 || tr.Msgs == 0 {
		t.Fatalf("transport rows report no traffic: %+v", tr)
	}
	if stats.Fleet.RingWireBytes == 0 {
		t.Fatal("modeled ring accounting lost when running over TCP")
	}
	// The autoscaler row travels with the fleet section: enabled, parked
	// at the band floor, with decision provenance once it has evaluated.
	as := stats.Fleet.Autoscale
	if as == nil {
		t.Fatal("/v1/stats has no autoscale row with autoscaling enabled")
	}
	if !as.Enabled || as.Min != 3 || as.Max != 4 {
		t.Fatalf("autoscale row misconfigured over HTTP: %+v", as)
	}
	if as.Live != 3 || as.Target != 3 {
		t.Fatalf("autoscale moved the fleet during a trickle: %+v", as)
	}
	if as.ScaleUps != 0 || as.ScaleDowns != 0 {
		t.Fatalf("autoscale scaled on a trickle: %+v", as)
	}
	if as.Evals > 0 && (as.LastDecision != "hold" || as.LastReason == "") {
		t.Fatalf("autoscale row lacks decision provenance: %+v", as)
	}
}

// A sharded-covariance fleet behind the server: /v1/stats grows the pshard
// row (partition geometry, per-rank resident P bytes, exchange traffic) and
// /metrics exports the per-rank gauges.
func TestServerPShardBackend(t *testing.T) {
	ds, _, srv := fleetSetup(t, fleet.Config{
		Replicas: 3, BatchSize: 2, SnapshotEvery: 1, TrainIdle: true, Seed: 5,
		PShard: true, Gate: online.GateConfig{Enabled: false},
	}, Config{Metrics: obs.NewRegistry()})
	base := "http://" + srv.Addr()

	req := FramesRequest{}
	for i := 0; i < 9; i++ {
		req.Frames = append(req.Frames, framePayload(ds, i))
	}
	var fresp FramesResponse
	if code, err := postJSON(t, base+"/v1/frames", req, &fresp); err != nil || code != http.StatusOK {
		t.Fatalf("frames: %d %v", code, err)
	}

	stats := waitStats(t, base, 60*time.Second, func(st StatsResponse) bool {
		return st.Steps >= 1
	})
	if stats.Fleet == nil || stats.Fleet.PShard == nil {
		t.Fatalf("/v1/stats has no pshard row for a sharded fleet: %+v", stats.Fleet)
	}
	ps := stats.Fleet.PShard
	if ps.Ranks != 3 || len(ps.ResidentBytesPerRank) != 3 || len(ps.ShardsPerRank) != 3 {
		t.Fatalf("pshard row geometry: %+v", ps)
	}
	var sum int64
	for _, b := range ps.ResidentBytesPerRank {
		if b <= 0 || b >= ps.TotalBytes {
			t.Fatalf("per-rank resident bytes %d not a strict share of %d", b, ps.TotalBytes)
		}
		sum += b
	}
	if sum != ps.TotalBytes {
		t.Fatalf("resident bytes sum %d != total %d", sum, ps.TotalBytes)
	}
	if ps.ExchangeBytesPerStep <= 0 || ps.ImbalanceRatio < 1 {
		t.Fatalf("pshard row footprint: %+v", ps)
	}
	for _, rs := range stats.Fleet.Replica {
		if rs.Alive && rs.PResidentBytes <= 0 {
			t.Fatalf("live replica %d reports no resident P", rs.ID)
		}
	}
	// Drift invariants hold over HTTP in sharded mode too.
	if stats.Fleet.WeightDrift != 0 || stats.Fleet.PDrift != 0 {
		t.Fatalf("sharded drift over HTTP: %g / %g", stats.Fleet.WeightDrift, stats.Fleet.PDrift)
	}
	// Raw JSON carries the documented pshard field names.
	var raw map[string]any
	getJSON(t, base+"/v1/stats", &raw)
	fl_, ok := raw["fleet"].(map[string]any)
	if !ok {
		t.Fatal("raw stats JSON has no fleet section")
	}
	prow, ok := fl_["pshard"].(map[string]any)
	if !ok {
		t.Fatal("raw fleet JSON has no pshard row")
	}
	for _, key := range []string{"ranks", "blocks", "rank_replica_ids", "shards_per_rank",
		"resident_bytes_per_rank", "total_bytes", "imbalance_ratio", "exchange_bytes_per_step"} {
		if _, ok := prow[key]; !ok {
			t.Fatalf("pshard row JSON missing %q", key)
		}
	}

	// /metrics exports the per-rank gauges with non-zero values.
	out := getBody(t, base+"/metrics")
	for _, want := range []string{
		`fekf_p_resident_bytes{rank="0"}`,
		`fekf_p_resident_bytes{rank="2"}`,
		`fekf_pshard_shards{rank="0"}`,
		"# TYPE fekf_pshard_imbalance_ratio gauge",
		"fekf_pshard_exchange_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `fekf_p_resident_bytes{rank="0"} `) {
			if strings.HasSuffix(line, " 0") {
				t.Errorf("rank 0 resident-bytes gauge stuck at 0: %q", line)
			}
		}
	}
}

// metricValue extracts the value of an unlabelled metric line from a
// Prometheus text exposition, failing the test when the family is absent.
func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s has unparseable value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("exposition has no %s sample", name)
	return 0
}

// The degraded health surface: with the sentinel on but no checkpoint ring,
// a poisoned step leaves the trainer permanently degraded — /healthz must
// report it (503 with Degraded503, 200 otherwise), the guard ledger rides
// the body and /metrics, and predictions keep answering from the last
// healthy snapshot.
func TestServerGuardDegradedHealthz(t *testing.T) {
	reg := obs.NewRegistry()
	ds, tr, srv := serveSetup(t,
		online.TrainerConfig{BatchSize: 2, SnapshotEvery: 1, TrainIdle: true, Seed: 5,
			Guard: guard.SentinelConfig{Enabled: true},
			Chaos: guard.ChaosConfig{PoisonStep: 2, PoisonInf: true},
			Gate:  online.GateConfig{Enabled: false}},
		Config{Metrics: reg, Degraded503: true})
	base := "http://" + srv.Addr()

	req := FramesRequest{}
	for i := 0; i < 4; i++ {
		req.Frames = append(req.Frames, framePayload(ds, i))
	}
	var fresp FramesResponse
	if code, err := postJSON(t, base+"/v1/frames", req, &fresp); err != nil || code != http.StatusOK {
		t.Fatalf("frames: %d %v", code, err)
	}

	deadline := time.Now().Add(60 * time.Second)
	var health HealthResponse
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&health)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never went 503: %+v", health)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if health.Status != "degraded" || health.Guard == nil {
		t.Fatalf("degraded healthz body: %+v", health)
	}
	if health.Guard.Divergences < 1 || health.Guard.Rollbacks != 0 {
		t.Fatalf("guard ledger over HTTP: %+v", health.Guard)
	}

	// Without the 503 knob the same backend state answers 200 "degraded".
	plain := New(tr, Config{})
	rr := httptest.NewRecorder()
	plain.handleHealth(rr, httptest.NewRequest("GET", "/healthz", nil))
	var ph HealthResponse
	if err := json.NewDecoder(rr.Body).Decode(&ph); err != nil {
		t.Fatal(err)
	}
	if rr.Code != http.StatusOK || ph.Status != "degraded" || ph.Guard == nil {
		t.Fatalf("default-policy degraded healthz: %d %+v", rr.Code, ph)
	}

	// The guard ledger is on /metrics as scrape-time func metrics.
	out := getBody(t, base+"/metrics")
	for _, want := range []string{
		"# TYPE fekf_guard_divergence_total counter",
		"# TYPE fekf_guard_rollback_total counter",
		"# TYPE fekf_guard_watchdog_total counter",
		"# TYPE fekf_guard_degraded gauge",
		"# TYPE fekf_checkpoint_ring_generation gauge",
		"# TYPE fekf_checkpoint_last_good_age_seconds gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if v := metricValue(t, out, "fekf_guard_divergence_total"); v < 1 {
		t.Errorf("fekf_guard_divergence_total = %g, want >= 1", v)
	}
	if v := metricValue(t, out, "fekf_guard_degraded"); v != 1 {
		t.Errorf("fekf_guard_degraded = %g, want 1", v)
	}
	if v := metricValue(t, out, "fekf_checkpoint_last_good_age_seconds"); v != -1 {
		t.Errorf("ring age without a ring = %g, want -1", v)
	}

	// Availability: the published snapshot predates the poison, so the
	// predict tier still answers with finite physics.
	s := ds.Snapshots[0]
	var presp PredictResponse
	if code, err := postJSON(t, base+"/v1/predict",
		PredictRequest{Pos: s.Pos, Box: s.Box, Types: s.Types}, &presp); err != nil || code != http.StatusOK {
		t.Fatalf("predict while degraded: %d %v", code, err)
	}
	if math.IsNaN(presp.Energy) || math.IsInf(presp.Energy, 0) {
		t.Fatalf("degraded predict returned non-finite energy %g", presp.Energy)
	}
}

// The recovered path over HTTP: with a checkpoint ring behind the trainer,
// the poisoned step rolls back automatically and the rollback/ring gauges
// land on /metrics.
func TestServerGuardRollbackMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	path := filepath.Join(t.TempDir(), "ckpt.gob")
	ds, _, srv := serveSetup(t,
		online.TrainerConfig{BatchSize: 2, SnapshotEvery: 1, TrainIdle: true, Seed: 7,
			CheckpointPath: path, CheckpointEvery: 2, CheckpointKeep: 3,
			Guard: guard.SentinelConfig{Enabled: true},
			Chaos: guard.ChaosConfig{PoisonStep: 5},
			Gate:  online.GateConfig{Enabled: false}},
		Config{Metrics: reg})
	base := "http://" + srv.Addr()

	req := FramesRequest{}
	for i := 0; i < 6; i++ {
		req.Frames = append(req.Frames, framePayload(ds, i))
	}
	var fresp FramesResponse
	if code, err := postJSON(t, base+"/v1/frames", req, &fresp); err != nil || code != http.StatusOK {
		t.Fatalf("frames: %d %v", code, err)
	}

	stats := waitStats(t, base, 60*time.Second, func(st StatsResponse) bool {
		return st.Guard != nil && st.Guard.Rollbacks >= 1 && st.Steps >= 6
	})
	if stats.Guard.Divergences != 1 || stats.Guard.RollbackGeneration == 0 {
		t.Fatalf("guard ledger after recovery: %+v", stats.Guard)
	}

	out := getBody(t, base+"/metrics")
	if v := metricValue(t, out, "fekf_guard_rollback_total"); v != 1 {
		t.Errorf("fekf_guard_rollback_total = %g, want 1", v)
	}
	if v := metricValue(t, out, "fekf_guard_divergence_total"); v != 1 {
		t.Errorf("fekf_guard_divergence_total = %g, want 1", v)
	}
	if v := metricValue(t, out, "fekf_checkpoint_ring_generation"); v < 2 {
		t.Errorf("fekf_checkpoint_ring_generation = %g, want >= 2", v)
	}
	if v := metricValue(t, out, "fekf_checkpoint_last_good_age_seconds"); v < 0 {
		t.Errorf("fekf_checkpoint_last_good_age_seconds = %g, want >= 0", v)
	}
}
