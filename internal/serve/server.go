package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/fleet"
	"fekf/internal/md"
	"fekf/internal/obs"
	"fekf/internal/online"
)

// Backend is the training engine behind the HTTP API — satisfied by both
// the single *online.Trainer and the replicated *fleet.Fleet, so the same
// server fronts either.
type Backend interface {
	// Ingest validates and enqueues one labelled frame (false without
	// error means dropped by queue policy).
	Ingest(s dataset.Snapshot) (bool, error)
	// Snapshot returns the latest published model snapshot (never nil
	// after the backend has started).
	Snapshot() *online.ModelSnapshot
	// Species returns the species table requests must use.
	Species() []md.Species
	// Cutoff returns the model's neighbour cutoff (Å), which bounds every
	// request's box (md.CheckBox).
	Cutoff() float64
	// NumAtoms returns the per-frame atom count ingest is locked to, or 0
	// before the first frame fixes it.
	NumAtoms() int
	// Stats returns the aggregated trainer-stats view.
	Stats() online.Stats
	// Stop shuts the backend down gracefully.
	Stop(ctx context.Context) error
}

// FleetStatser is the optional per-replica stats surface a fleet backend
// adds to /v1/stats (replica health, queue depths, drift, snapshot ages).
type FleetStatser interface {
	FleetStats() fleet.Stats
}

// Config controls the HTTP server.
type Config struct {
	// Addr is the listen address; ":0" or "127.0.0.1:0" picks a random
	// free port (see Server.Addr).
	Addr string
	// Metrics, when non-nil, is served at GET /metrics in Prometheus text
	// format and populated with the serving tier's request metrics plus
	// scrape-time func metrics over the backend's stats (one consistent
	// snapshot per scrape).
	Metrics *obs.Registry
	// Trace, when non-nil, is served at GET /v1/trace as JSON.
	Trace *obs.Tracer
	// Degraded503 makes GET /healthz answer 503 while the backend's guard
	// reports a degraded state, so orchestrator probes can shed the node.
	// Off by default: a degraded backend still serves predictions from the
	// last healthy snapshot, so degradation is reported in the body with a
	// 200 unless the operator opts into probe-visible failure.
	Degraded503 bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/, outside the
	// request-timeout wrapper (profiles run for tens of seconds; they are
	// still subject to the server's write timeout — use the standalone
	// metrics listener for long captures).
	EnablePprof bool
}

// RequestTimeout bounds each request end to end.
const RequestTimeout = 10 * time.Second

// MaxBodyBytes bounds request bodies.
const MaxBodyBytes = 16 << 20

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	return c
}

// Server wires a training backend (single trainer or fleet) into an HTTP
// API:
//
//	POST /v1/predict  energy/forces from the latest snapshot
//	POST /v1/frames   labelled-frame ingest into the trainer queue
//	GET  /healthz     liveness + snapshot provenance
//	GET  /v1/stats    queue depth, snapshot age, λ, counters (+ per-replica
//	                  fleet rows when the backend is a fleet)
type Server struct {
	cfg Config
	be  Backend
	// slots holds one token per running forward pass.  Its capacity,
	// GOMAXPROCS, keeps a burst of predicts from running more forwards
	// at once than there are cores.
	slots chan struct{}

	http     *http.Server
	ln       net.Listener
	serveErr error         // http.Serve's failure, if any; set before served closes
	served   chan struct{} // closed when the Serve goroutine returns
	start    time.Time
	om       *httpMetrics // nil when cfg.Metrics is nil

	predictN atomic.Int64
	forwardN atomic.Int64
	frameN   atomic.Int64
}

// New builds a server around a backend (which the caller has Started or
// will Start; Shutdown stops it).  A *fleet.Fleet backend routes every
// prediction through its snapshot router.
func New(be Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		be:     be,
		slots:  make(chan struct{}, runtime.GOMAXPROCS(0)),
		served: make(chan struct{}),
		start:  time.Now(),
	}
	if cfg.Metrics != nil {
		s.om = newHTTPMetrics(cfg.Metrics)
		registerBackendMetrics(cfg.Metrics, be)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealth))
	mux.HandleFunc("GET /v1/stats", s.instrument("/v1/stats", s.handleStats))
	mux.HandleFunc("POST /v1/frames", s.instrument("/v1/frames", s.handleFrames))
	mux.HandleFunc("POST /v1/predict", s.instrument("/v1/predict", s.handlePredict))
	if cfg.Metrics != nil {
		mux.Handle("GET /metrics", cfg.Metrics.Handler())
	}
	if cfg.Trace != nil {
		mux.Handle("GET /v1/trace", cfg.Trace.Handler())
	}
	handler := http.Handler(http.TimeoutHandler(mux, RequestTimeout, `{"error":"request timed out"}`))
	if cfg.EnablePprof {
		// pprof streams for the caller-chosen capture window, so it lives
		// outside the per-request timeout wrapper.
		outer := http.NewServeMux()
		obs.MountPprof(outer)
		outer.Handle("/", handler)
		handler = outer
	}
	s.http = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       RequestTimeout,
		WriteTimeout:      RequestTimeout + 5*time.Second,
		IdleTimeout:       60 * time.Second,
	}
	return s
}

// Start binds the listener and begins serving in the background.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	go func() {
		defer close(s.served)
		// Serve returns ErrServerClosed after Shutdown; anything else
		// ended the listener early and is reported by Shutdown.
		if err := s.http.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			s.serveErr = fmt.Errorf("serve: listener: %w", err)
		}
	}()
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Shutdown drains gracefully: stop accepting requests and wait for
// handlers, then stop the backend — which drains its queues and writes the
// final checkpoint.  The error joins an early listener failure, the HTTP
// drain's and the backend's.
func (s *Server) Shutdown(ctx context.Context) error {
	httpErr := s.http.Shutdown(ctx)
	if s.ln != nil {
		<-s.served
	}
	beErr := s.be.Stop(ctx)
	return errors.Join(s.serveErr, httpErr, beErr)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.be.Stats()
	status, code := "ok", http.StatusOK
	if st.Guard != nil && st.Guard.Degraded {
		status = "degraded"
		if s.cfg.Degraded503 {
			code = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, code, HealthResponse{
		Status:       status,
		System:       st.System,
		Steps:        st.Steps,
		SnapshotStep: st.SnapshotStep,
		Guard:        st.Guard,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// One Stats() snapshot per request: the backend assembles it from a
	// dozen atomics, so calling it twice in one handler would both pay
	// double and mix two moments in time into one response.
	st := s.be.Stats()
	resp := StatsResponse{
		Stats:           st,
		PredictRequests: s.predictN.Load(),
		PredictBatches:  s.forwardN.Load(),
		FrameRequests:   s.frameN.Load(),
		UptimeMs:        time.Since(s.start).Milliseconds(),
	}
	if fs, ok := s.be.(FleetStatser); ok {
		fst := fs.FleetStats()
		resp.Fleet = &fst
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFrames(w http.ResponseWriter, r *http.Request) {
	s.frameN.Add(1)
	var req FramesRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Frames) == 0 {
		writeErr(w, http.StatusBadRequest, "no frames in request")
		return
	}
	// Validate every frame before ingesting any, so a 400 leaves the
	// queues untouched and a client can retry the corrected request
	// without counting a frame twice.
	frames := make([]dataset.Snapshot, len(req.Frames))
	atoms := s.be.NumAtoms()
	if atoms == 0 {
		atoms = len(req.Frames[0].Types)
	}
	for i := range req.Frames {
		frames[i] = req.Frames[i].Snapshot()
		if err := online.ValidateFrame(&frames[i], s.be.Species(), s.be.Cutoff(), atoms); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("frame %d: %v (no frame ingested)", i, err))
			return
		}
	}
	resp := FramesResponse{}
	for i := range frames {
		ok, err := s.be.Ingest(frames[i])
		switch {
		case errors.Is(err, online.ErrClosed):
			writeErr(w, http.StatusServiceUnavailable, "trainer is shutting down")
			return
		case errors.Is(err, fleet.ErrNoReplica):
			writeErr(w, http.StatusServiceUnavailable, "no live replica to ingest into")
			return
		case err != nil:
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("frame %d: %v", i, err))
			return
		case ok:
			resp.Accepted++
		default:
			resp.Dropped++
		}
	}
	st := s.be.Stats()
	resp.QueueDepth = st.QueueDepth
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.predictN.Add(1)
	var req PredictRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	sys, err := req.System(s.be.Species(), s.be.Cutoff())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	select {
	case s.slots <- struct{}{}:
	case <-r.Context().Done():
		writeErr(w, http.StatusServiceUnavailable, "waiting for a forward slot: "+r.Context().Err().Error())
		return
	}
	resp, err := s.predict(sys)
	<-s.slots
	switch {
	case errors.Is(err, errNoSnapshot):
		writeErr(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err.Error())
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

// errNoSnapshot answers predicts that reach a backend before its Start.
var errNoSnapshot = errors.New("serve: no model snapshot published yet")

// predict runs one forward pass of sys on the latest published snapshot.
// Snapshots are immutable clones, so concurrent forwards only read the
// weights.
func (s *Server) predict(sys *md.System) (PredictResponse, error) {
	snap := s.be.Snapshot()
	if snap == nil {
		return PredictResponse{}, errNoSnapshot
	}
	env, err := deepmd.BuildEnv(snap.Model.Cfg, []*md.System{sys})
	if err != nil {
		return PredictResponse{}, err
	}
	out := snap.Model.Forward(env, true)
	resp := PredictResponse{
		Energy:       out.Energies.Value.Data[0],
		Forces:       append([]float64(nil), out.Forces.Value.Data...),
		SnapshotStep: snap.Step,
	}
	out.Graph.Release()
	s.forwardN.Add(1)
	return resp, nil
}

// decodeJSON reads a bounded JSON body into v, answering 400 on failure.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}
