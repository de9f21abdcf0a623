package fleet

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/guard"
	"fekf/internal/online"
)

// mirrorSubject is the surface the single trainer and the fleet share for
// the stats-mirror contract.
type mirrorSubject interface {
	Ingest(dataset.Snapshot) (bool, error)
	Start()
	Stop(context.Context) error
	Stats() online.Stats
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
}

func mirrorTrainerConfig(k mirrorKnobs) online.TrainerConfig {
	return online.TrainerConfig{
		BatchSize: 2, MinFrames: 1, Seed: 5,
		WindowSize: k.windowSize, ReservoirSize: 3,
		Gate:           online.GateConfig{Enabled: true, Threshold: 1.5, Warmup: 2},
		CheckpointPath: k.path, CheckpointEvery: 2, CheckpointKeep: k.keep,
		Guard: guard.SentinelConfig{Enabled: k.poisonStep > 0, SampleStride: 1},
		Chaos: guard.ChaosConfig{PoisonStep: k.poisonStep},
	}
}

func mirrorFleetConfig(k mirrorKnobs, pshard bool) Config {
	return Config{
		Replicas: 2, PShard: pshard,
		BatchSize: 2, MinFrames: 1, Seed: 5,
		WindowSize: k.windowSize, ReservoirSize: 3,
		Gate:           online.GateConfig{Enabled: true, Threshold: 1.5, Warmup: 2},
		CheckpointPath: k.path, CheckpointEvery: 2, CheckpointKeep: k.keep,
		Guard: guard.SentinelConfig{Enabled: k.poisonStep > 0, SampleStride: 1},
		Chaos: guard.ChaosConfig{PoisonStep: k.poisonStep},
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
		}
	}
	return []mirrorKind{
		{
			name: "trainer",
			build: func(t *testing.T, k mirrorKnobs) (*dataset.Dataset, mirrorSubject) {
				ds, m, opt := fleetSetup(t)
				tr, err := online.NewTrainer(m, opt, ds, mirrorTrainerConfig(k))
				if err != nil {
					t.Fatal(err)
				}
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
		},
		fleetKind("replicated", false),
		fleetKind("pshard", true),
	}
}

// feedOneStepEach ingests frames one at a time, waiting after each for the
// step it triggers (or, for the poisoned step, for the rollback it
// triggers), so the loop state at the end is deterministic.
func feedOneStepEach(t *testing.T, ds *dataset.Dataset, s mirrorSubject, n int, poisonStep int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if ok, err := s.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("ingest %d: %v %v", i, ok, err)
		}
		want := int64(i + 1)
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
				s.Start()
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
				s.Start()
				feedOneStepEach(t, ds, s, 5, 5)
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
