package fleet

import (
	"context"
	"strings"
	"testing"
	"time"

	"fekf/internal/obs"
	"fekf/internal/online"
)

// TestFleetObservability drives a 3-replica fleet with metrics and tracing
// wired and checks the acceptance surface: step/kill/revive instruments
// fire, the exposition renders, and every step trace carries non-zero
// backward / allreduce / gain / drain spans from the collective ranks.
func TestFleetObservability(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(16)
	ds, f := newTestFleet(t, 3, Config{
		Seed:          23,
		SnapshotEvery: 1, // every step publishes, so every trace has the span
		Gate:          online.GateConfig{Enabled: false},
		Metrics:       NewMetrics(reg),
		Trace:         tracer,
	})
	for i := 0; i < 12; i++ {
		if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("ingest %d: %v %v", i, ok, err)
		}
	}
	if got := f.drainAll(); got != 12 {
		t.Fatalf("drained %d frames, want 12", got)
	}
	const steps = 3
	for i := 0; i < steps; i++ {
		f.loop.Step()
	}
	if f.Steps() != steps {
		t.Fatalf("took %d steps, want %d (last error %q)", f.Steps(), steps, f.Stats().LastError)
	}

	m := f.cfg.Metrics
	if got := m.StepSeconds.Count(); got != steps {
		t.Errorf("step histogram count = %d, want %d", got, steps)
	}
	if m.StepSeconds.Sum() <= 0 {
		t.Error("step histogram sum is zero")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.Kill(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Revive(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if m.Kills.Value() != 1 || m.Revives.Value() != 1 {
		t.Errorf("kills/revives = %d/%d, want 1/1", m.Kills.Value(), m.Revives.Value())
	}

	// Each step trace must time every collective phase on every rank.
	traces := tracer.Last(0)
	if len(traces) != steps {
		t.Fatalf("recorded %d traces, want %d", len(traces), steps)
	}
	for _, st := range traces {
		if st.DurNs <= 0 {
			t.Errorf("step %d trace has zero duration", st.Step)
		}
		phases := map[string]int{}
		for _, sp := range st.Spans {
			if sp.DurNs <= 0 {
				t.Errorf("step %d span %s (rank %d) has zero duration", st.Step, sp.Name, sp.Rank)
			}
			phases[sp.Name]++
		}
		for _, want := range []string{"backward", "allreduce", "gain", "drain", "sample", "snapshot_publish"} {
			if phases[want] == 0 {
				t.Errorf("step %d trace has no %q span (got %v)", st.Step, want, phases)
			}
		}
		// Collective phases must come from all 3 ranks.
		ranks := map[int]bool{}
		for _, sp := range st.Spans {
			if sp.Name == "allreduce" {
				ranks[sp.Rank] = true
			}
		}
		if len(ranks) != 3 {
			t.Errorf("step %d allreduce spans cover ranks %v, want all 3", st.Step, ranks)
		}
	}

	// The registry renders the fleet families with the recorded values.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"fekf_fleet_step_seconds_count 3\n",
		"fekf_fleet_kills_total 1\n",
		"fekf_fleet_revives_total 1\n",
		`fekf_fleet_step_seconds_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
