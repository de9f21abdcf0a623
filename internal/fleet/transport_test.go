package fleet

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"fekf/internal/cluster"
	"fekf/internal/cluster/tcptransport"
	"fekf/internal/online"
)

// Satellite 1 regression: the router rotation index must survive uint64
// counter wraparound.  Before the fix the modulo ran after an int
// conversion, so a wrapped counter produced a negative start index and
// Snapshot panicked on reps[-k].
func TestRouterSnapshotSurvivesWraparound(t *testing.T) {
	_, f := newTestFleet(t, 3, Config{Seed: 5, Gate: online.GateConfig{Enabled: false}})
	f.publish(f.liveIDs(), f.loop.Steps.Load())
	// Park the counter just below wraparound and rotate across it.
	f.router.next.Store(math.MaxUint64 - 2)
	seen := make(map[int]bool)
	for i := 0; i < 8; i++ {
		s := f.router.Snapshot()
		if s == nil {
			t.Fatalf("Snapshot %d returned nil with all replicas published", i)
		}
		seen[int(s.Step)] = true
	}
	if f.router.next.Load() >= math.MaxUint64-2 {
		t.Fatal("counter never wrapped — test is not exercising the regression")
	}
	// And the n == 0 guard: a router over no replicas must not divide by
	// zero.
	empty := &Router{f: &Fleet{}}
	if s := empty.Snapshot(); s != nil {
		t.Fatalf("empty fleet returned snapshot %v, want nil", s)
	}
	_ = seen
}

// fleetWeights returns the first live replica's flattened weights.
func fleetWeights(f *Fleet) []float64 {
	return f.reps[f.liveIDs()[0]].model.Params.FlattenValues()
}

// The acceptance bar: a 3-replica fleet over TCP loopback must produce
// bitwise-identical weights and λ to the in-process transport for the same
// frame stream — including across an injected mid-step failure.
func TestFleetBitwiseChanVsTCP(t *testing.T) {
	run := func(transport string) ([]float64, float64) {
		ds, f := newTestFleet(t, 3, Config{
			Seed: 11, Gate: online.GateConfig{Enabled: false}, Transport: transport,
		})
		for i := 0; i < 12; i++ {
			if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
				t.Fatalf("ingest %d: %v %v", i, ok, err)
			}
		}
		f.drainAll()
		f.loop.Step()
		f.loop.Step()
		// Cooperative mid-step failure on replica 1: zero partials, full
		// collectives — deterministic on every transport.
		f.preCollective = func(_ context.Context, id int, _ int64, _ func()) error {
			if id == 1 {
				return errors.New("injected mid-step failure")
			}
			return nil
		}
		f.loop.Step()
		f.preCollective = nil
		f.loop.Step()
		assertBitwiseConsistent(t, f)
		if f.WeightDrift() != 0 || f.PDrift() != 0 {
			t.Fatalf("%s: drift gauges %g/%g, want exactly 0", transport, f.WeightDrift(), f.PDrift())
		}
		st := f.FleetStats()
		if st.Transport.BytesSent == 0 {
			t.Fatalf("%s: no measured transport bytes: %+v", transport, st.Transport)
		}
		f.retireRing()
		return fleetWeights(f), f.Stats().Lambda
	}
	chanW, chanL := run("chan")
	tcpW, tcpL := run("tcp")
	if chanL != tcpL {
		t.Fatalf("λ differs across transports: chan %x tcp %x", chanL, tcpL)
	}
	for i := range chanW {
		if chanW[i] != tcpW[i] {
			t.Fatalf("weight %d: chan %x != tcp %x — transports not bitwise equivalent",
				i, chanW[i], tcpW[i])
		}
	}
}

// A transient connection cut mid-step is absorbed by the TCP reconnect
// machinery: the step completes bitwise clean and the fleet reports
// nonzero reconnect counters.
func TestFleetTCPReconnectMidStep(t *testing.T) {
	rings := 0
	cfg := Config{Seed: 11, Gate: online.GateConfig{Enabled: false}}
	ringFactory := func(size int) (*cluster.Ring, error) {
		rings++
		g, err := tcptransport.NewLoopbackGroup(size, tcptransport.Options{RingID: "cut-test"})
		if err != nil {
			return nil, err
		}
		var tr cluster.Transport = g
		if rings == 1 {
			tr = cluster.NewFaultyTransport(g,
				cluster.FaultRule{Rank: 1, Msg: 3, Kind: cluster.FaultCut})
		}
		return cluster.NewRingOver(tr, cluster.RoCE25()), nil
	}
	ds, f := newTestFleet(t, 3, cfg)
	f.ringFactory = ringFactory
	for i := 0; i < 12; i++ {
		if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("ingest %d: %v %v", i, ok, err)
		}
	}
	f.drainAll()
	f.loop.Step()
	f.loop.Step()
	if f.Steps() != 2 {
		t.Fatalf("took %d steps, want 2 (last error %q)", f.Steps(), f.Stats().LastError)
	}
	assertBitwiseConsistent(t, f)
	st := f.FleetStats()
	if st.Transport.Reconnects < 1 {
		t.Fatalf("Reconnects = %d after a connection cut, want >= 1 (%+v)",
			st.Transport.Reconnects, st.Transport)
	}
	if st.Live != 3 {
		t.Fatalf("a transient cut killed a replica: %d live", st.Live)
	}
	f.retireRing()
}

// A hard peer failure (severed rank) must map onto the replica-death path
// in either covariance mode: the dead replica leaves the fleet, the
// survivors are reconciled to exactly zero drift with P still positive-
// definite, stepping continues, and the stats report the peer failure.
func TestFleetTCPSeverMapsToReplicaDeath(t *testing.T) {
	for _, mode := range covModes {
		t.Run(mode.name, func(t *testing.T) {
			rings := 0
			cfg := Config{PShard: mode.pshard, Seed: 21, Gate: online.GateConfig{Enabled: false}}
			ringFactory := func(size int) (*cluster.Ring, error) {
				rings++
				g, err := tcptransport.NewLoopbackGroup(size, tcptransport.Options{RingID: "sever-test"})
				if err != nil {
					return nil, err
				}
				var tr cluster.Transport = g
				if rings == 2 {
					// Sever rank 1 mid-collective on the second ring's first step.
					tr = cluster.NewFaultyTransport(g,
						cluster.FaultRule{Rank: 1, Msg: 2, Kind: cluster.FaultSever})
				}
				return cluster.NewRingOver(tr, cluster.RoCE25()), nil
			}
			ds, f := newTestFleet(t, 3, cfg)
			f.ringFactory = ringFactory
			for i := 0; i < 12; i++ {
				if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
					t.Fatalf("ingest %d: %v %v", i, ok, err)
				}
			}
			f.drainAll()
			f.loop.Step() // ring 1: healthy
			assertBitwiseConsistent(t, f)

			// Force a ring re-formation so the faulty ring (rings == 2) is built:
			// kill and revive replica 2 cooperatively.
			if err := f.killLocked(2); err != nil {
				t.Fatal(err)
			}
			f.loop.Step() // ring 2 (size 2): severed mid-step → rank 1 = replica 1 dies
			if !strings.Contains(f.Stats().LastError, "ring broken") {
				t.Fatalf("sever not surfaced: %q", f.Stats().LastError)
			}
			if f.reps[1].alive.Load() {
				t.Fatal("severed rank's replica still marked alive")
			}
			live := f.liveIDs()
			if len(live) != 1 || live[0] != 0 {
				t.Fatalf("live = %v, want [0]", live)
			}
			if f.WeightDrift() != 0 || f.PDrift() != 0 {
				t.Fatalf("drift gauges %g/%g after recovery, want exactly 0", f.WeightDrift(), f.PDrift())
			}
			assertPSPD(t, f)

			// The fleet keeps training on the survivor, and a revived replica
			// catches up bitwise.
			f.loop.Step()
			if err := f.reviveLocked(2); err != nil {
				t.Fatal(err)
			}
			f.loop.Step()
			assertBitwiseConsistent(t, f)

			st := f.FleetStats()
			if st.Transport.PeerFailures < 1 {
				t.Fatalf("PeerFailures = %d after a sever, want >= 1 (%+v)",
					st.Transport.PeerFailures, st.Transport)
			}
			if st.Transport.BytesSent == 0 {
				t.Fatal("no measured transport bytes accumulated")
			}
			f.retireRing()
		})
	}
}
