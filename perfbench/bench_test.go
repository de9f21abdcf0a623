package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny sizes a run for the smoke test: one set-up, an 8-step fit and a
// two-second measured time.
func tiny(seed int64, trace bool) options {
	return options{seed: seed, seconds: 2 * time.Second, trace: trace, setups: 1, fitSteps: 8, fitFrames: 16}
}

func TestSpecMatchesMetrics(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, list := range []struct {
		kind  string
		units map[string]string
		spec  []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
	}{{"end_to_end", endToEnd, s.EndToEnd}, {"per_layer", perLayer, s.PerLayer}} {
		if len(list.spec) != len(list.units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", list.kind, len(list.spec), len(list.units))
		}
		for _, m := range list.spec {
			if u, ok := list.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s in %s, benchmark reports unit %q", list.kind, m.Name, m.Unit, u)
			}
		}
	}
}

// TestSmoke runs every workload at tiny length, untraced and traced, and
// requires a correct run printing every metric, finite, with its unit (and
// a Chrome trace file from the traced run).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"serve_mixed", "fleet_repl", "fleet_pshard"} {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			o := tiny(3, traced)
			if traced {
				o.traceOut = filepath.Join(t.TempDir(), name+".json")
			}
			res, failures, err := run(workloads[name], o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if traced {
				raw, err := os.ReadFile(o.traceOut)
				if err != nil || !json.Valid(raw) {
					t.Errorf("%s: trace file: %v", name, err)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", name, traced, res.Correct, res.Attempted, res.Failed, failures)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", name, traced, m)
				case got.Unit != unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v %q", name, traced, m, got.Value, got.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, m, got.Value)
				}
			}
		}
	}
}

// fitABE builds a backend, lets it take n steps on the preloaded frames
// and returns the per-step ABE sequences.
func fitABE(t *testing.T, w workload, n int) (e, f []float64) {
	t.Helper()
	o := tiny(5, false)
	in, err := genInputs(w, o.seed, o.fitFrames, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := setup(w, fitSeed, in.fit, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer x.shutdown()
	if err := x.log.waitSteps(n, time.Minute); err != nil {
		t.Fatal(err)
	}
	e, f = x.log.abe()
	return e[:n], f[:n]
}

// TestFitRepeatsBitwise: two fits give bitwise-identical ABE sequences,
// so the ABE metrics are exact on every workload.
func TestFitRepeatsBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("trains")
	}
	for _, name := range []string{"fleet_repl", "fleet_pshard", "serve_mixed"} {
		e1, f1 := fitABE(t, workloads[name], 8)
		e2, f2 := fitABE(t, workloads[name], 8)
		for i := range e1 {
			if math.Float64bits(e1[i]) != math.Float64bits(e2[i]) || math.Float64bits(f1[i]) != math.Float64bits(f2[i]) {
				t.Fatalf("%s: step %d ABE %v/%v vs %v/%v", name, i+1, e1[i], f1[i], e2[i], f2[i])
			}
		}
	}
}
