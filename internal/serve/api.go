// Package serve exposes the online trainer over a net/http JSON API:
// labelled-frame ingest, energy/force prediction from the latest published
// model snapshot (one forward pass per request, in its own handler),
// health and stats.  See DESIGN.md,
// "Online-learning subsystem".
package serve

import (
	"fmt"

	"fekf/internal/dataset"
	"fekf/internal/fleet"
	"fekf/internal/guard"
	"fekf/internal/md"
	"fekf/internal/online"
)

// FramePayload is one labelled configuration posted to /v1/frames.
type FramePayload struct {
	Pos         []float64  `json:"pos"`   // 3N coordinates, Å
	Box         [3]float64 `json:"box"`   // orthorhombic box, Å
	Types       []int      `json:"types"` // species index per atom
	Energy      float64    `json:"energy"`
	Forces      []float64  `json:"forces"`
	Temperature float64    `json:"temperature,omitempty"`
}

// Snapshot converts the payload to a dataset frame.
func (p *FramePayload) Snapshot() dataset.Snapshot {
	return dataset.Snapshot{
		Pos:         p.Pos,
		Box:         p.Box,
		Types:       p.Types,
		Energy:      p.Energy,
		Forces:      p.Forces,
		Temperature: p.Temperature,
	}
}

// FramesRequest is the /v1/frames body: one or more labelled frames.
type FramesRequest struct {
	Frames []FramePayload `json:"frames"`
}

// FramesResponse reports the ingest outcome.
type FramesResponse struct {
	Accepted   int `json:"accepted"`
	Dropped    int `json:"dropped"` // rejected by queue policy (not errors)
	QueueDepth int `json:"queue_depth"`
}

// PredictRequest is the /v1/predict body: one unlabelled configuration.
type PredictRequest struct {
	Pos   []float64  `json:"pos"`
	Box   [3]float64 `json:"box"`
	Types []int      `json:"types"`
}

// System validates the request against the backend's species table and
// model cutoff — its box must keep the neighbour scan bounded
// (md.CheckBox) — and returns it as an MD configuration.
func (r *PredictRequest) System(species []md.Species, cutoff float64) (*md.System, error) {
	sys := &md.System{Box: r.Box, Pos: r.Pos, Types: r.Types, Species: species}
	if len(r.Types) == 0 {
		return nil, fmt.Errorf("no atoms")
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := md.CheckBox(r.Box, cutoff, len(r.Types)); err != nil {
		return nil, err
	}
	return sys, nil
}

// PredictResponse carries the model prediction and its provenance.
type PredictResponse struct {
	Energy float64   `json:"energy"` // total energy, eV
	Forces []float64 `json:"forces"` // 3N components, eV/Å
	// SnapshotStep is the training step of the snapshot that answered.
	SnapshotStep int64 `json:"snapshot_step"`
}

// HealthResponse is the /healthz body.  Status is "ok", or "degraded"
// while the backend's self-healing guard reports a recent divergence,
// rollback or watchdog fire that enough healthy steps have not yet
// cleared (see Config.Degraded503 for the status-code policy).
type HealthResponse struct {
	Status       string        `json:"status"`
	System       string        `json:"system"`
	Steps        int64         `json:"steps"`
	SnapshotStep int64         `json:"snapshot_step"`
	Guard        *guard.Status `json:"guard,omitempty"`
}

// StatsResponse is the /v1/stats body: aggregated trainer stats plus
// server-side serving counters, and — when the backend is a fleet — the
// per-replica fleet view (health, queue depth, drift, snapshot age).
type StatsResponse struct {
	online.Stats
	PredictRequests int64        `json:"predict_requests"`
	PredictBatches  int64        `json:"predict_batches"` // forward passes run, one per answered predict
	FrameRequests   int64        `json:"frame_requests"`
	UptimeMs        int64        `json:"uptime_ms"`
	Fleet           *fleet.Stats `json:"fleet,omitempty"`
}

// ErrorResponse is the JSON error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
}
