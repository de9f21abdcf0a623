package online

import (
	"math"
	"sync/atomic"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/md"
	"fekf/internal/obs"
)

// Lane is one ingest lane of the online learner: the bounded queue frames
// arrive on, the uncertainty gate and replay buffer they flow through, the
// published copy-on-write snapshot readers consume, and the atomic mirrors
// that let Stats read the loop-owned state from any goroutine.  The single
// trainer holds one lane; every fleet replica embeds one.
//
// The gate and the replay buffer belong to the Loop goroutine that owns
// the model (the trainer's or the fleet conductor's); the queue, the
// snapshot pointer and the mirrors are the concurrent surface.
type Lane struct {
	// Queue is the bounded ingest queue producers push into.
	Queue *Queue

	system  string
	species []md.Species
	gateCfg GateConfig
	replay  *ReplayBuffer
	gate    *Gate

	snap      atomic.Pointer[ModelSnapshot]
	accepted  atomic.Int64
	gatedOut  atomic.Int64
	seen      atomic.Int64
	replayLen atomic.Int64
	replayWin atomic.Int64
	replayRes atomic.Int64
	replayCap atomic.Int64
	gateEMA   atomic.Uint64
}

// NewLane builds a lane for frames of the given system and species table
// around a queue and a replay buffer, with a fresh gate under gate.
func NewLane(system string, species []md.Species, queue *Queue, replay *ReplayBuffer, gate GateConfig) *Lane {
	l := &Lane{Queue: queue, system: system, species: species, gateCfg: gate, replay: replay, gate: NewGate(gate)}
	l.mirrorReplay()
	return l
}

// Admit runs one frame through the gate — scored against the filter's P
// diagonal pd on model m — into the replay buffer, refreshing the mirrors.
// The ingest_admit and gate spans land on rec under rank.  A gate error
// drops the frame and is returned for the caller's last-error plumbing.
// Loop goroutine only.
func (l *Lane) Admit(s dataset.Snapshot, m *deepmd.Model, pd []float64, rec *obs.StepRecorder, rank int) error {
	a0 := time.Now()
	defer func() { rec.Span(rank, "ingest_admit", a0, time.Since(a0)) }()
	scratch := &dataset.Dataset{System: l.system, Species: l.species, Snapshots: []dataset.Snapshot{s}}
	g0 := time.Now()
	ok, _, err := l.gate.Admit(m, pd, scratch, 0)
	rec.Span(rank, "gate", g0, time.Since(g0))
	if err != nil {
		return err
	}
	l.gateEMA.Store(math.Float64bits(l.gate.EMA()))
	if !ok {
		l.gatedOut.Add(1)
		return nil
	}
	l.replay.Add(s)
	l.accepted.Add(1)
	l.mirrorReplay()
	return nil
}

// Replay returns the replay buffer minibatches are drawn from.  Loop
// goroutine only.
func (l *Lane) Replay() *ReplayBuffer { return l.replay }

// Publish swaps in a fresh copy-on-write snapshot of m taken at step.
// Loop goroutine only (the clone must see quiescent weights).
func (l *Lane) Publish(m *deepmd.Model, step int64, now time.Time) {
	l.snap.Store(&ModelSnapshot{Model: m.Clone(), Step: step, Published: now})
}

// Snapshot returns the latest published snapshot (nil before the first
// Publish); safe from any goroutine.
func (l *Lane) Snapshot() *ModelSnapshot { return l.snap.Load() }

// Checkpoint captures the lane's replay buffer, gate and stream counters.
// Loop goroutine only.
func (l *Lane) Checkpoint() (replay *ReplayCheckpoint, gate *GateCheckpoint, accepted, gatedOut int64) {
	return l.replay.Checkpoint(), l.gate.Checkpoint(), l.accepted.Load(), l.gatedOut.Load()
}

// Restore rewinds the lane to checkpointed state: the replay buffer at its
// checkpointed capacities and sampling-RNG position, the gate, and the
// stream counters (a nil replay or gate keeps the current one).  Frames
// still queued are untouched.  Loop goroutine only.
func (l *Lane) Restore(replay *ReplayCheckpoint, gate *GateCheckpoint, accepted, gatedOut int64) {
	l.accepted.Store(accepted)
	l.gatedOut.Store(gatedOut)
	if replay != nil {
		l.replay = RestoreReplay(replay)
		l.mirrorReplay()
	}
	if gate != nil {
		l.gate = RestoreGate(gate, l.gateCfg)
		l.gateEMA.Store(math.Float64bits(l.gate.EMA()))
	}
}

func (l *Lane) mirrorReplay() {
	l.replayLen.Store(int64(l.replay.Len()))
	l.replayWin.Store(int64(l.replay.WindowLen()))
	l.replayRes.Store(int64(l.replay.ReservoirLen()))
	l.replayCap.Store(int64(l.replay.Cap()))
	l.seen.Store(l.replay.Seen())
}

// GateEMA returns the gate's running mean score; safe from any goroutine.
func (l *Lane) GateEMA() float64 { return math.Float64frombits(l.gateEMA.Load()) }

// AddTo adds the lane's queue, gate and replay counters into st (the
// ratios are left to Stats.DeriveRatios); safe from any goroutine.
func (l *Lane) AddTo(st *Stats) {
	st.QueueDepth += l.Queue.Depth()
	st.QueueCapacity += l.Queue.Cap()
	st.FramesQueued += l.Queue.Pushed()
	st.FramesDropped += l.Queue.Dropped()
	st.FramesAccepted += l.accepted.Load()
	st.FramesGatedOut += l.gatedOut.Load()
	st.FramesSeen += l.seen.Load()
	st.ReplaySize += l.replayLen.Load()
	st.ReplayWindowLen += l.replayWin.Load()
	st.ReplayReservoirLen += l.replayRes.Load()
	st.ReplayCapacity += l.replayCap.Load()
}
