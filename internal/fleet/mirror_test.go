package fleet

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/guard"
	"fekf/internal/obs"
	"fekf/internal/online"
	"fekf/internal/optimize"
)

// mirrorSubject is the surface the single trainer and the fleet share for
// the stats-mirror contract.
type mirrorSubject interface {
	Ingest(dataset.Snapshot) (bool, error)
	Start()
	Stop(context.Context) error
	Stats() online.Stats
	Snapshot() *online.ModelSnapshot
	WriteCheckpoint(path string) error
}

// laneRecount is one ingest lane's state read back from its checkpointed
// replay buffer and gate — the ground truth the stats mirrors must match.
type laneRecount struct {
	alive  bool
	replay *online.ReplayCheckpoint
	gate   *online.GateCheckpoint
}

// mirrorKnobs are the per-run settings the table varies.
type mirrorKnobs struct {
	path       string
	keep       int
	poisonStep int64
	windowSize int
	// loop-contract observers (zero values keep the defaults)
	snapshotEvery int
	onStep        func(int64, optimize.StepInfo)
	trace         *obs.Tracer
}

type mirrorKind struct {
	name string
	// build constructs a fresh subject from the shared test model.
	build func(t *testing.T, k mirrorKnobs) (*dataset.Dataset, mirrorSubject)
	// resume reconstructs a subject from the plain checkpoint at path.
	resume func(t *testing.T, path string, k mirrorKnobs) mirrorSubject
	// recount writes a plain checkpoint of s and returns its lanes, plus
	// the per-replica stats rows (nil for the single trainer).
	recount func(t *testing.T, s mirrorSubject) ([]laneRecount, []ReplicaStats)
	// scored returns the frames the checkpoint at path records as gated
	// (accepted + gated out), summed over its lanes.
	scored func(t *testing.T, path string) int64
	// snapSteps returns each lane's published snapshot step.
	snapSteps func(s mirrorSubject) []int64
}

func mirrorTrainerConfig(k mirrorKnobs) online.TrainerConfig {
	return online.TrainerConfig{
		BatchSize: 2, Seed: 5,
		WindowSize: k.windowSize, ReservoirSize: 3,
		Gate:           online.GateConfig{Enabled: true, Threshold: 1.5},
		CheckpointPath: k.path, CheckpointEvery: 2, CheckpointKeep: k.keep,
		Guard:         guard.SentinelConfig{Enabled: k.poisonStep > 0},
		Chaos:         guard.ChaosConfig{PoisonStep: k.poisonStep},
		SnapshotEvery: k.snapshotEvery, OnStep: k.onStep, Trace: k.trace,
	}
}

func mirrorFleetConfig(k mirrorKnobs, pshard bool) Config {
	return Config{
		Replicas: 2, PShard: pshard,
		BatchSize: 2, Seed: 5,
		WindowSize: k.windowSize, ReservoirSize: 3,
		Gate:           online.GateConfig{Enabled: true, Threshold: 1.5},
		CheckpointPath: k.path, CheckpointEvery: 2, CheckpointKeep: k.keep,
		Guard:         guard.SentinelConfig{Enabled: k.poisonStep > 0},
		SnapshotEvery: k.snapshotEvery, OnStep: k.onStep, Trace: k.trace,
	}
}

func mirrorKinds() []mirrorKind {
	fleetKind := func(name string, pshard bool) mirrorKind {
		return mirrorKind{
			name: name,
			build: func(t *testing.T, k mirrorKnobs) (*dataset.Dataset, mirrorSubject) {
				ds, m, opt := fleetSetup(t)
				f, err := New(m, opt, ds, mirrorFleetConfig(k, pshard))
				if err != nil {
					t.Fatal(err)
				}
				poisonAt(f, guard.ChaosConfig{PoisonStep: k.poisonStep})
				queueWarmup(t, ds, f, f.Replicas())
				return ds, f
			},
			resume: func(t *testing.T, path string, k mirrorKnobs) mirrorSubject {
				ck, err := guard.Load[Checkpoint](path)
				if err != nil {
					t.Fatal(err)
				}
				f, err := Resume(ck, mirrorFleetConfig(k, pshard))
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			recount: func(t *testing.T, s mirrorSubject) ([]laneRecount, []ReplicaStats) {
				path := filepath.Join(t.TempDir(), "recount.gob")
				if err := s.WriteCheckpoint(path); err != nil {
					t.Fatal(err)
				}
				ck, err := guard.Load[Checkpoint](path)
				if err != nil {
					t.Fatal(err)
				}
				var lanes []laneRecount
				for _, rck := range ck.Replicas {
					lanes = append(lanes, laneRecount{alive: rck.Alive, replay: rck.Replay, gate: rck.Gate})
				}
				return lanes, s.(*Fleet).FleetStats().Replica
			},
			scored: func(t *testing.T, path string) int64 {
				ck, err := guard.Load[Checkpoint](path)
				if err != nil {
					t.Fatal(err)
				}
				var n int64
				for _, rck := range ck.Replicas {
					n += rck.FramesAccepted + rck.FramesGatedOut
				}
				return n
			},
			snapSteps: func(s mirrorSubject) []int64 {
				var steps []int64
				for _, rs := range s.(*Fleet).FleetStats().Replica {
					steps = append(steps, rs.SnapshotStep)
				}
				return steps
			},
		}
	}
	return []mirrorKind{
		{
			name: "trainer",
			build: func(t *testing.T, k mirrorKnobs) (*dataset.Dataset, mirrorSubject) {
				ds, m, opt := fleetSetup(t)
				opt.InitState(m) // P = I before step 1, so the warm-up frames are scored
				tr, err := online.NewTrainer(m, opt, ds, mirrorTrainerConfig(k))
				if err != nil {
					t.Fatal(err)
				}
				queueWarmup(t, ds, tr, 1)
				return ds, tr
			},
			resume: func(t *testing.T, path string, k mirrorKnobs) mirrorSubject {
				ck, err := guard.Load[online.Checkpoint](path)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := online.ResumeTrainer(ck, nil, mirrorTrainerConfig(k))
				if err != nil {
					t.Fatal(err)
				}
				return tr
			},
			recount: func(t *testing.T, s mirrorSubject) ([]laneRecount, []ReplicaStats) {
				path := filepath.Join(t.TempDir(), "recount.gob")
				if err := s.WriteCheckpoint(path); err != nil {
					t.Fatal(err)
				}
				ck, err := guard.Load[online.Checkpoint](path)
				if err != nil {
					t.Fatal(err)
				}
				return []laneRecount{{alive: true, replay: ck.Replay, gate: ck.Gate}}, nil
			},
			scored: func(t *testing.T, path string) int64 {
				ck, err := guard.Load[online.Checkpoint](path)
				if err != nil {
					t.Fatal(err)
				}
				return ck.FramesAccepted + ck.FramesGatedOut
			},
			snapSteps: func(s mirrorSubject) []int64 { return []int64{s.Snapshot().Step} },
		},
		fleetKind("replicated", false),
		fleetKind("pshard", true),
	}
}

// queueWarmup queues online.GateWarmup frames per lane before Start.  The
// first conductor pass scores every one of them inside the gate's warm-up
// and takes step 1 on them, so from step 2 on each frame is gated on its
// score and the replay buffers always hold a batch.
func queueWarmup(t *testing.T, ds *dataset.Dataset, s mirrorSubject, lanes int) {
	t.Helper()
	for i := 0; i < online.GateWarmup*lanes; i++ {
		if ok, err := s.Ingest(ds.Snapshots[i%ds.Len()]); !ok || err != nil {
			t.Fatalf("warm-up ingest %d: %v %v", i, ok, err)
		}
	}
}

// startWarm starts s and waits for step 1, which drains the warm-up burst.
func startWarm(t *testing.T, s mirrorSubject) {
	t.Helper()
	s.Start()
	awaitSteps(t, s, 1)
}

// feedOneStepEach ingests frames one at a time after the warm-up step,
// waiting after each for the step it triggers (frame i, step i+2; or, for
// the poisoned step, for the rollback it triggers), so the loop state at
// the end is deterministic.
func feedOneStepEach(t *testing.T, ds *dataset.Dataset, s mirrorSubject, n int, poisonStep int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if ok, err := s.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("ingest %d: %v %v", i, ok, err)
		}
		want := int64(i + 2)
		deadline := time.Now().Add(60 * time.Second)
		for {
			st := s.Stats()
			if want == poisonStep {
				if st.Guard != nil && st.Guard.Rollbacks == 1 {
					break
				}
			} else if st.Steps == want {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("frame %d: no step/rollback within deadline (stats %+v)", i, st)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func stopSubject(t *testing.T, s mirrorSubject) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}

// assertMirrors checks every mirrored stats field against a recount from
// the lanes' replay buffers and gates.
func assertMirrors(t *testing.T, when string, s mirrorSubject, lanes []laneRecount, rows []ReplicaStats) {
	t.Helper()
	var want online.Stats
	var emaSum float64
	var emaN int
	for i, l := range lanes {
		size := int64(len(l.replay.Window) + len(l.replay.Reservoir))
		want.FramesAccepted += l.gate.Accepted
		want.FramesGatedOut += l.gate.Rejected
		want.FramesSeen += l.replay.Seen
		want.ReplaySize += size
		want.ReplayWindowLen += int64(len(l.replay.Window))
		want.ReplayReservoirLen += int64(len(l.replay.Reservoir))
		want.ReplayCapacity += int64(l.replay.WindowCap + l.replay.ResCap)
		if l.alive {
			emaSum += l.gate.EMA
			emaN++
		}
		if rows == nil {
			continue
		}
		rs := rows[i]
		if rs.FramesAccepted != l.gate.Accepted || rs.FramesGatedOut != l.gate.Rejected ||
			rs.ReplaySize != size || rs.GateEMA != l.gate.EMA {
			t.Fatalf("%s: replica %d row %+v, recount accepted=%d gated=%d replay=%d ema=%v",
				when, i, rs, l.gate.Accepted, l.gate.Rejected, size, l.gate.EMA)
		}
	}
	if emaN > 0 {
		want.GateEMA = emaSum / float64(emaN)
	}
	got := s.Stats()
	if got.FramesAccepted != want.FramesAccepted || got.FramesGatedOut != want.FramesGatedOut ||
		got.FramesSeen != want.FramesSeen || got.GateEMA != want.GateEMA {
		t.Fatalf("%s: stream mirrors accepted=%d gated=%d seen=%d ema=%v, recount %d/%d/%d/%v",
			when, got.FramesAccepted, got.FramesGatedOut, got.FramesSeen, got.GateEMA,
			want.FramesAccepted, want.FramesGatedOut, want.FramesSeen, want.GateEMA)
	}
	if got.ReplaySize != want.ReplaySize || got.ReplayWindowLen != want.ReplayWindowLen ||
		got.ReplayReservoirLen != want.ReplayReservoirLen {
		t.Fatalf("%s: replay mirrors size=%d window=%d reservoir=%d, recount %d/%d/%d",
			when, got.ReplaySize, got.ReplayWindowLen, got.ReplayReservoirLen,
			want.ReplaySize, want.ReplayWindowLen, want.ReplayReservoirLen)
	}
	if got.ReplayCapacity != want.ReplayCapacity {
		t.Fatalf("%s: replay capacity %d, restored buffers hold %d", when, got.ReplayCapacity, want.ReplayCapacity)
	}
	if occ := float64(want.ReplaySize) / float64(want.ReplayCapacity); got.ReplayOccupancy != occ || occ > 1 {
		t.Fatalf("%s: replay occupancy %v, recount %v", when, got.ReplayOccupancy, occ)
	}
	if scored := want.FramesAccepted + want.FramesGatedOut; scored > 0 {
		if rate := float64(want.FramesAccepted) / float64(scored); got.GateAcceptRate != rate {
			t.Fatalf("%s: gate accept rate %v, recount %v", when, got.GateAcceptRate, rate)
		}
	}
}

// The stats mirrors (accepted / gated-out / seen counters, replay fill and
// capacity, gate EMA) must equal a recount from the underlying replay
// buffers and gates after ingest + steps, after a chaos-poison rollback,
// and after Stop → Resume — including a resume under a different
// configured window size, where the restored buffers keep the
// checkpoint's capacities.
func TestStatsMirrorsMatchRecount(t *testing.T) {
	for _, kind := range mirrorKinds() {
		t.Run(kind.name, func(t *testing.T) {
			t.Run("ingest+resume", func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "ckpt.gob")
				k := mirrorKnobs{path: path, windowSize: 4}
				ds, s := kind.build(t, k)
				startWarm(t, s)
				feedOneStepEach(t, ds, s, 9, 0)
				stopSubject(t, s)
				lanes, rows := kind.recount(t, s)
				assertMirrors(t, "after ingest+steps", s, lanes, rows)

				// Resume under the same and under a smaller window: the
				// restored buffers keep the checkpointed capacities.
				for _, window := range []int{4, 2} {
					t.Run(fmt.Sprintf("resume/window=%d", window), func(t *testing.T) {
						r := kind.resume(t, path, mirrorKnobs{windowSize: window})
						lanes, rows := kind.recount(t, r)
						assertMirrors(t, "after resume", r, lanes, rows)
					})
				}
			})
			t.Run("rollback", func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "ckpt.gob")
				k := mirrorKnobs{path: path, keep: 3, poisonStep: 5, windowSize: 4}
				ds, s := kind.build(t, k)
				startWarm(t, s)
				feedOneStepEach(t, ds, s, 4, 5)
				stopSubject(t, s)
				if st := s.Stats(); st.Steps != 4 {
					t.Fatalf("rollback did not rewind: steps=%d", st.Steps)
				}
				lanes, rows := kind.recount(t, s)
				assertMirrors(t, "after rollback", s, lanes, rows)
			})
		})
	}
}

// ingestAndAwaitStep ingests one frame and waits until the subject has
// completed want steps.
func ingestAndAwaitStep(t *testing.T, s mirrorSubject, frame dataset.Snapshot, want int64) {
	t.Helper()
	if ok, err := s.Ingest(frame); !ok || err != nil {
		t.Fatalf("ingest for step %d: %v %v", want, ok, err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for s.Stats().Steps != want {
		if time.Now().After(deadline) {
			t.Fatalf("no step %d within deadline (stats %+v)", want, s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// stepLog records the step numbers the loop hands to OnStep.
type stepLog struct {
	mu    sync.Mutex
	steps []int64
}

func (l *stepLog) onStep(n int64, _ optimize.StepInfo) {
	l.mu.Lock()
	l.steps = append(l.steps, n)
	l.mu.Unlock()
}

// assertSequence checks that OnStep saw exactly first..last, once each, in
// order.
func (l *stepLog) assertSequence(t *testing.T, first, last int64) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if int64(len(l.steps)) != last-first+1 {
		t.Fatalf("OnStep saw %v, want %d..%d", l.steps, first, last)
	}
	for i, n := range l.steps {
		if n != first+int64(i) {
			t.Fatalf("OnStep saw %v, want %d..%d", l.steps, first, last)
		}
	}
}

// The online loop's contract, identical for the single trainer and both
// fleet modes: the lifecycle guards, the post-step schedule (OnStep once
// per step in order, periodic publishes on SnapshotEvery, counted periodic
// checkpoints, an uncounted final one), the stop-time drain of every
// queued frame into the final checkpoint, and a sentinel rollback that
// records one conductor-rank rollback span and resumes at the restored
// step + 1.
func TestLoopContract(t *testing.T) {
	for _, kind := range mirrorKinds() {
		t.Run(kind.name, func(t *testing.T) {
			t.Run("schedule", func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "ckpt.gob")
				var log stepLog
				const every = 3
				ds, s := kind.build(t, mirrorKnobs{path: path, windowSize: 4, snapshotEvery: every, onStep: log.onStep})
				if err := s.Stop(context.Background()); err == nil {
					t.Fatal("Stop before Start returned nil")
				}
				s.Start()
				published := map[*online.ModelSnapshot]bool{}
				for i := 0; i < 4; i++ {
					published[s.Snapshot()] = true
				}
				s.Start() // a second Start is a no-op: nothing is republished
				for i := 0; i < 4; i++ {
					if !published[s.Snapshot()] {
						t.Fatal("second Start republished a snapshot")
					}
				}

				const fed = 9
				awaitSteps(t, s, 1) // the warm-up burst
				prev := kind.snapSteps(s)
				for i := 0; i < fed; i++ {
					ingestAndAwaitStep(t, s, ds.Snapshots[i], int64(i+2))
					cur := kind.snapSteps(s)
					for lane, step := range cur {
						if step < prev[lane] || step%every != 0 {
							t.Fatalf("step %d: lane %d published step %d after %d (SnapshotEvery %d)",
								i+1, lane, step, prev[lane], every)
						}
					}
					prev = cur
				}
				// Frames queued right before Stop must all reach the final
				// checkpoint through the stop-time drain.
				const extra = 6
				for i := fed; i < fed+extra; i++ {
					if ok, err := s.Ingest(ds.Snapshots[i]); !ok || err != nil {
						t.Fatalf("ingest %d: %v %v", i, ok, err)
					}
				}
				stopSubject(t, s)
				st := s.Stats()
				log.assertSequence(t, 1, st.Steps)
				if want := st.Steps / 2; st.Checkpoints != want {
					t.Fatalf("checkpoints_written %d after %d steps, want %d periodic writes", st.Checkpoints, st.Steps, want)
				}
				for lane, step := range kind.snapSteps(s) {
					if step != st.Steps {
						t.Fatalf("lane %d final snapshot at step %d, want %d", lane, step, st.Steps)
					}
				}
				if got, want := kind.scored(t, path), int64(fed+extra+online.GateWarmup*len(prev)); got != want {
					t.Fatalf("final checkpoint gated %d frames, %d were pushed", got, want)
				}
			})
			t.Run("rollback", func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "ckpt.gob")
				var log stepLog
				trace := obs.NewTracer(256)
				ds, s := kind.build(t, mirrorKnobs{path: path, keep: 3, poisonStep: 5, windowSize: 4,
					onStep: log.onStep, trace: trace})
				startWarm(t, s)
				feedOneStepEach(t, ds, s, 4, 5)
				st := s.Stats()
				if st.Steps != 4 || st.Guard == nil || st.Guard.Rollbacks != 1 || st.LastError == "" {
					t.Fatalf("after the poisoned step: steps=%d guard=%+v last_error=%q", st.Steps, st.Guard, st.LastError)
				}
				// The next step resumes from the restored step 4.
				ingestAndAwaitStep(t, s, ds.Snapshots[5], 5)
				stopSubject(t, s)
				log.assertSequence(t, 1, 5)
				rollbacks := 0
				for _, str := range trace.Last(trace.Capacity()) {
					for _, sp := range str.Spans {
						if sp.Name == "rollback" {
							if sp.Rank != -1 {
								t.Fatalf("rollback span on rank %d, want -1", sp.Rank)
							}
							rollbacks++
						}
					}
				}
				if rollbacks != 1 {
					t.Fatalf("%d rollback spans, want 1", rollbacks)
				}
			})
		})
	}
}
