package serve

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"fekf/internal/fleet"
	"fekf/internal/guard"
	"fekf/internal/obs"
	"fekf/internal/online"
)

// maxRankGauges caps how many per-rank gauge children the collector
// materializes — a fleet never has anywhere near this many replicas.
const maxRankGauges = 1024

// httpMetrics is the server's push-side instrument set: per-route request
// counts and latency.
type httpMetrics struct {
	requests *obs.CounterVec   // fekf_http_requests_total{route,code}
	latency  *obs.HistogramVec // fekf_http_request_seconds{route}
}

func newHTTPMetrics(reg *obs.Registry) *httpMetrics {
	return &httpMetrics{
		requests: reg.Counter("fekf_http_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		latency: reg.Histogram("fekf_http_request_seconds",
			"HTTP request latency, by route.", obs.DefSecondsBuckets, "route"),
	}
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-route latency histogram and the
// request counter.  The histogram child is resolved once here, so the per
// request cost is the status capture plus two metric updates.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	if s.om == nil {
		return h
	}
	hist := s.om.latency.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		h(sw, r)
		hist.Observe(time.Since(t0).Seconds())
		code := sw.status
		if code == 0 {
			code = http.StatusOK
		}
		s.om.requests.With(route, strconv.Itoa(code)).Inc()
	}
}

// backendCollector bridges the backend's existing stats surfaces into the
// registry as scrape-time func metrics.  Its collector hook takes ONE
// consistent Stats() (and FleetStats()) snapshot per scrape, cached for
// every func metric of that scrape — the /metrics view is as internally
// consistent as /v1/stats, with zero extra bookkeeping on training paths.
type backendCollector struct {
	be Backend
	fs FleetStatser

	// Per-rank gauge families (fleet backends only): resident covariance
	// bytes and owned shard count, written in collect() so the labelled
	// children always reflect the same snapshot the func metrics read.
	pBytes  *obs.GaugeVec
	pShards *obs.GaugeVec

	mu  sync.Mutex
	st  online.Stats
	fst fleet.Stats
}

func (c *backendCollector) collect() {
	st := c.be.Stats()
	var fst fleet.Stats
	if c.fs != nil {
		fst = c.fs.FleetStats()
	}
	if c.pBytes != nil {
		// The pshard arrays are indexed by rank; join them onto replicas
		// through the rank→replica map so a shrunken live set attributes
		// shard counts to the right replica id.
		shardsByID := map[int]int{}
		if fst.PShard != nil {
			for rank, id := range fst.PShard.RankReplicaIDs {
				if rank < len(fst.PShard.ShardsPerRank) {
					shardsByID[id] = fst.PShard.ShardsPerRank[rank]
				}
			}
		}
		for _, rs := range fst.Replica {
			if rs.ID >= maxRankGauges {
				break
			}
			label := strconv.Itoa(rs.ID)
			c.pBytes.With(label).Set(float64(rs.PResidentBytes))
			c.pShards.With(label).Set(float64(shardsByID[rs.ID]))
		}
	}
	c.mu.Lock()
	c.st = st
	c.fst = fst
	c.mu.Unlock()
}

// stat reads one trainer-stats field from the cached snapshot.
func (c *backendCollector) stat(f func(online.Stats) float64) func() float64 {
	return func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return f(c.st)
	}
}

// gstat reads one guard-status field from the cached snapshot; a backend
// with no guard configured (Stats().Guard == nil) reads as zero.
func (c *backendCollector) gstat(f func(*guard.Status) float64) func() float64 {
	return func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.st.Guard == nil {
			return 0
		}
		return f(c.st.Guard)
	}
}

// fstat reads one fleet-stats field from the cached snapshot.
func (c *backendCollector) fstat(f func(fleet.Stats) float64) func() float64 {
	return func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return f(c.fst)
	}
}

// registerBackendMetrics exposes the trainer-stats (and, for a fleet
// backend, the fleet/autoscale/transport) view as func metrics on reg.
func registerBackendMetrics(reg *obs.Registry, be Backend) {
	c := &backendCollector{be: be}
	if fs, ok := be.(FleetStatser); ok {
		c.fs = fs
	}
	reg.AddCollector(c.collect)

	reg.CounterFunc("fekf_train_steps_total",
		"Optimizer steps completed.",
		c.stat(func(s online.Stats) float64 { return float64(s.Steps) }))
	reg.CounterFunc("fekf_kalman_updates_total",
		"Kalman measurement updates applied (energy + force groups per step).",
		c.stat(func(s online.Stats) float64 { return float64(s.KalmanUpdates) }))
	reg.GaugeFunc("fekf_lambda",
		"Current Kalman forgetting factor.",
		c.stat(func(s online.Stats) float64 { return s.Lambda }))
	reg.GaugeFunc("fekf_ingest_queue_depth",
		"Frames buffered in the ingest queue(s).",
		c.stat(func(s online.Stats) float64 { return float64(s.QueueDepth) }))
	reg.GaugeFunc("fekf_ingest_queue_occupancy",
		"Filled fraction of the ingest queue capacity.",
		c.stat(func(s online.Stats) float64 { return s.QueueOccupancy }))
	reg.CounterFunc("fekf_frames_queued_total",
		"Frames accepted into the ingest queue(s).",
		c.stat(func(s online.Stats) float64 { return float64(s.FramesQueued) }))
	reg.CounterFunc("fekf_frames_dropped_total",
		"Frames dropped by full-queue policy.",
		c.stat(func(s online.Stats) float64 { return float64(s.FramesDropped) }))
	reg.CounterFunc("fekf_frames_accepted_total",
		"Frames admitted by the uncertainty gate into replay.",
		c.stat(func(s online.Stats) float64 { return float64(s.FramesAccepted) }))
	reg.CounterFunc("fekf_frames_gated_out_total",
		"Frames rejected by the uncertainty gate.",
		c.stat(func(s online.Stats) float64 { return float64(s.FramesGatedOut) }))
	reg.GaugeFunc("fekf_gate_accept_ratio",
		"Fraction of gate-scored frames admitted.",
		c.stat(func(s online.Stats) float64 { return s.GateAcceptRate }))
	reg.GaugeFunc("fekf_gate_ema",
		"Gate uncertainty score EMA.",
		c.stat(func(s online.Stats) float64 { return s.GateEMA }))
	reg.GaugeFunc("fekf_replay_frames",
		"Frames held in the replay buffer(s).",
		c.stat(func(s online.Stats) float64 { return float64(s.ReplaySize) }))
	reg.GaugeFunc("fekf_replay_occupancy",
		"Filled fraction of the replay capacity.",
		c.stat(func(s online.Stats) float64 { return s.ReplayOccupancy }))
	reg.GaugeFunc("fekf_snapshot_age_seconds",
		"Age of the freshest published model snapshot.",
		c.stat(func(s online.Stats) float64 { return float64(s.SnapshotAgeMs) / 1000 }))
	reg.CounterFunc("fekf_checkpoints_total",
		"Checkpoints written.",
		c.stat(func(s online.Stats) float64 { return float64(s.Checkpoints) }))

	// Self-healing guard ledger (all zero when no guard is configured).
	reg.CounterFunc("fekf_guard_divergence_total",
		"Numerical divergences caught by the health sentinel.",
		c.gstat(func(g *guard.Status) float64 { return float64(g.Divergences) }))
	reg.CounterFunc("fekf_guard_rollback_total",
		"Automatic rollbacks to a checkpoint ring generation.",
		c.gstat(func(g *guard.Status) float64 { return float64(g.Rollbacks) }))
	reg.CounterFunc("fekf_guard_watchdog_total",
		"Step-watchdog fires (a stuck rank aborted and reconciled).",
		c.gstat(func(g *guard.Status) float64 { return float64(g.WatchdogFires) }))
	reg.CounterFunc("fekf_guard_quarantined_checkpoints_total",
		"Corrupt or torn checkpoint generations quarantined at load.",
		c.gstat(func(g *guard.Status) float64 { return float64(g.Quarantined) }))
	reg.GaugeFunc("fekf_guard_degraded",
		"1 while a recent divergence/watchdog event has not been cleared by enough healthy steps.",
		c.gstat(func(g *guard.Status) float64 {
			if g.Degraded {
				return 1
			}
			return 0
		}))
	reg.GaugeFunc("fekf_checkpoint_ring_generation",
		"Newest checkpoint ring generation written or validated.",
		c.gstat(func(g *guard.Status) float64 { return float64(g.RingGeneration) }))
	reg.GaugeFunc("fekf_checkpoint_last_good_age_seconds",
		"Age of the newest known-good checkpoint generation (-1 before any exists).",
		c.gstat(func(g *guard.Status) float64 {
			if g.RingAgeMs < 0 {
				return -1
			}
			return float64(g.RingAgeMs) / 1000
		}))

	if c.fs == nil {
		// Single-trainer backend: one resident-P value, same name as the
		// fleet's per-rank gauge so the footprint is comparable across
		// modes (replicated, sharded, single host).
		reg.GaugeFunc("fekf_p_resident_bytes",
			"Resident Kalman covariance (P) bytes.",
			c.stat(func(s online.Stats) float64 { return float64(s.PResidentBytes) }))
		return
	}
	c.pBytes = reg.Gauge("fekf_p_resident_bytes",
		"Resident Kalman covariance (P) bytes per replica: the full P under replication, only the owned row slabs under -pshard.", "rank")
	c.pShards = reg.Gauge("fekf_pshard_shards",
		"Covariance row slabs owned by each replica (0 for replicated fleets).", "rank")
	reg.GaugeFunc("fekf_pshard_imbalance_ratio",
		"Largest/mean rank share of the sharded covariance (0 for replicated fleets).",
		c.fstat(func(s fleet.Stats) float64 {
			if s.PShard == nil {
				return 0
			}
			return s.PShard.ImbalanceRatio
		}))
	reg.GaugeFunc("fekf_pshard_exchange_bytes",
		"Modeled P·g exchange payload per sharded step (0 for replicated fleets).",
		c.fstat(func(s fleet.Stats) float64 {
			if s.PShard == nil {
				return 0
			}
			return float64(s.PShard.ExchangeBytesPerStep)
		}))
	reg.GaugeFunc("fekf_fleet_replicas",
		"Allocated replica slots.",
		c.fstat(func(s fleet.Stats) float64 { return float64(s.Replicas) }))
	reg.GaugeFunc("fekf_fleet_live_replicas",
		"Replicas currently live.",
		c.fstat(func(s fleet.Stats) float64 { return float64(s.Live) }))
	reg.GaugeFunc("fekf_fleet_weight_drift",
		"Max absolute weight difference between live replicas (0 under the fleet invariant).",
		c.fstat(func(s fleet.Stats) float64 { return s.WeightDrift }))
	reg.GaugeFunc("fekf_fleet_p_drift",
		"Max absolute covariance difference between live replicas (0 under the fleet invariant).",
		c.fstat(func(s fleet.Stats) float64 { return s.PDrift }))
	reg.CounterFunc("fekf_ring_wire_bytes_total",
		"Modeled RoCE payload bytes over live and retired rings.",
		c.fstat(func(s fleet.Stats) float64 { return float64(s.RingWireBytes) }))
	reg.CounterFunc("fekf_ring_ops_total",
		"Collective operations over live and retired rings.",
		c.fstat(func(s fleet.Stats) float64 { return float64(s.RingOps) }))
	reg.CounterFunc("fekf_transport_sent_bytes_total",
		"Measured transport bytes sent (payload + framing), all rings.",
		c.fstat(func(s fleet.Stats) float64 { return float64(s.Transport.BytesSent) }))
	reg.CounterFunc("fekf_transport_recv_bytes_total",
		"Measured transport bytes received, all rings.",
		c.fstat(func(s fleet.Stats) float64 { return float64(s.Transport.BytesRecv) }))
	reg.CounterFunc("fekf_transport_messages_total",
		"Transport messages delivered, all rings.",
		c.fstat(func(s fleet.Stats) float64 { return float64(s.Transport.Msgs) }))
	reg.CounterFunc("fekf_transport_retries_total",
		"Transport send retries.",
		c.fstat(func(s fleet.Stats) float64 { return float64(s.Transport.Retries) }))
	reg.CounterFunc("fekf_transport_reconnects_total",
		"Transport reconnect attempts.",
		c.fstat(func(s fleet.Stats) float64 { return float64(s.Transport.Reconnects) }))
	reg.CounterFunc("fekf_transport_heartbeats_total",
		"Transport heartbeats exchanged.",
		c.fstat(func(s fleet.Stats) float64 { return float64(s.Transport.Heartbeats) }))
	reg.CounterFunc("fekf_transport_peer_failures_total",
		"Peer failures detected by the transport.",
		c.fstat(func(s fleet.Stats) float64 { return float64(s.Transport.PeerFailures) }))

	reg.GaugeFunc("fekf_autoscale_pressure",
		"Smoothed queue-pressure signal the autoscaler acts on (0 when disabled).",
		c.fstat(func(s fleet.Stats) float64 {
			if s.Autoscale == nil {
				return 0
			}
			return s.Autoscale.Pressure
		}))
	reg.GaugeFunc("fekf_autoscale_target_replicas",
		"Autoscaler's current target live count (0 when disabled).",
		c.fstat(func(s fleet.Stats) float64 {
			if s.Autoscale == nil {
				return 0
			}
			return float64(s.Autoscale.Target)
		}))
}
