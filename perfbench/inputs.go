package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/md"
	"fekf/internal/serve"
)

// mdStride is the number of Langevin steps between two generated frames,
// as in the cmd/serve MD client.
const mdStride = 5

// fitSeed seeds the fit on every run: the bootstrap dataset, model init,
// replay sampling and the preloaded frames.  The ABE metrics thus compare
// one fixed fit across commits (it differs by tens of percent between
// seeds), while the workload seed drives everything the client sends.
const fitSeed = 1

// inputs is everything the benchmark feeds the program, generated from the
// workload seed before any clock starts.
type inputs struct {
	// fit holds the labelled MD frames ingested before Start, so the
	// fixed-length fit sees the same replay population on every run.
	fit []dataset.Snapshot
	// frames and predicts are the pre-encoded request bodies of the two
	// client streams, sent in order.
	frames   [][]byte
	predicts [][]byte
	// frameDue and predictDue are each stream's send times as offsets from
	// the start of the serve phase (jittered, one seeded source each).
	frameDue   []time.Duration
	predictDue []time.Duration
	atoms      int
}

// genInputs builds a workload's inputs: Langevin trajectories of the tiny
// Cu cell labelled by its classical potential for the fit (from fitSeed)
// and the frame stream, a third trajectory for the predict systems, and
// one jittered schedule per stream covering the serve window.
func genInputs(w workload, seed int64, fitFrames int, serveWindow time.Duration) (*inputs, error) {
	in := &inputs{
		frameDue:   schedule(rand.New(rand.NewSource(seed+101)), w.frameRate, serveWindow),
		predictDue: schedule(rand.New(rand.NewSource(seed+102)), w.predictRate, serveWindow),
	}
	fit, err := trajectory(fitSeed+103, fitFrames)
	if err != nil {
		return nil, err
	}
	in.fit = fit
	in.atoms = fit[0].NumAtoms()
	streamed, err := trajectory(seed+105, len(in.frameDue))
	if err != nil {
		return nil, err
	}
	for _, s := range streamed {
		body, err := json.Marshal(serve.FramesRequest{Frames: []serve.FramePayload{{
			Pos: s.Pos, Box: s.Box, Types: s.Types, Energy: s.Energy, Forces: s.Forces, Temperature: s.Temperature,
		}}})
		if err != nil {
			return nil, err
		}
		in.frames = append(in.frames, body)
	}
	// Predict systems cycle through a pool of distinct configurations.
	pool := len(in.predictDue)
	if pool > 256 {
		pool = 256
	}
	systems, err := trajectory(seed+104, pool)
	if err != nil {
		return nil, err
	}
	for i := range in.predictDue {
		s := systems[i%len(systems)]
		body, err := json.Marshal(serve.PredictRequest{Pos: s.Pos, Box: s.Box, Types: s.Types})
		if err != nil {
			return nil, err
		}
		in.predicts = append(in.predicts, body)
	}
	return in, nil
}

// trajectory samples n labelled frames from a seeded Langevin run of the
// tiny Cu cell, mdStride steps apart after a short equilibration.
func trajectory(seed int64, n int) ([]dataset.Snapshot, error) {
	spec, err := md.GetSystem(system)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	sys, pot := spec.TinyBuild()
	T := spec.Temperatures[0]
	sys.InitVelocities(T, rng)
	lg := md.NewLangevin(pot, spec.TimeStep, T, rng)
	lg.Run(sys, 40, 0, nil)
	out := make([]dataset.Snapshot, 0, n)
	for len(out) < n {
		lg.Run(sys, mdStride, 0, nil)
		e, f := md.ComputeAll(pot, sys)
		if !finite(e) {
			return nil, fmt.Errorf("trajectory: non-finite label energy at frame %d", len(out))
		}
		out = append(out, dataset.Snapshot{
			Pos:         append([]float64(nil), sys.Pos...),
			Box:         sys.Box,
			Types:       append([]int(nil), sys.Types...),
			Energy:      e,
			Forces:      f,
			Temperature: T,
		})
	}
	return out, nil
}

// schedule returns open-loop send offsets at the given mean rate covering
// window: each gap is the mean period scaled by a uniform factor in
// [0.5, 1.5), drawn from the stream's own seeded source.
func schedule(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	period := float64(time.Second) / rate
	var due []time.Duration
	for t := 0.0; ; {
		t += period * (0.5 + rng.Float64())
		if time.Duration(t) >= window {
			return due
		}
		due = append(due, time.Duration(t))
	}
}
