package serve

import (
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"fekf/internal/fleet"
	"fekf/internal/obs"
	"fekf/internal/online"
)

// TestServerObservability wires a registry and tracer through trainer and
// server, drives traffic, and checks /metrics serves valid exposition
// covering the HTTP and trainer families while /v1/trace returns step
// traces with spans.
func TestServerObservability(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(32)
	ds, tr, srv := serveSetup(t,
		online.TrainerConfig{BatchSize: 2, SnapshotEvery: 1, TrainIdle: true, Seed: 5,
			Gate:    online.GateConfig{Enabled: false},
			Metrics: online.NewMetrics(reg), Trace: tracer},
		Config{Metrics: reg, Trace: tracer})
	base := "http://" + srv.Addr()

	req := FramesRequest{}
	for i := 0; i < 6; i++ {
		req.Frames = append(req.Frames, framePayload(ds, i))
	}
	var fresp FramesResponse
	if code, err := postJSON(t, base+"/v1/frames", req, &fresp); err != nil || code != http.StatusOK {
		t.Fatalf("frames: %d %v", code, err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for tr.Stats().Steps < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("trainer stuck at %d steps (last error %q)", tr.Stats().Steps, tr.Stats().LastError)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics content type = %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE fekf_train_steps_total counter",
		"# TYPE fekf_train_step_seconds histogram",
		"# TYPE fekf_ingest_queue_depth gauge",
		"fekf_train_step_seconds_bucket{le=\"+Inf\"}",
		"fekf_http_requests_total{route=\"/v1/frames\",code=\"200\"} 1",
		"fekf_http_request_seconds_count{route=\"/v1/frames\"} 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The scrape-time trainer counter must reflect the steps taken.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "fekf_train_steps_total ") {
			if line == "fekf_train_steps_total 0" {
				t.Error("fekf_train_steps_total stuck at 0 after training")
			}
		}
	}

	var tresp obs.TraceResponse
	getJSON(t, base+"/v1/trace", &tresp)
	if tresp.Capacity != 32 || len(tresp.Steps) == 0 {
		t.Fatalf("trace capacity %d, %d steps — want 32 and >0", tresp.Capacity, len(tresp.Steps))
	}
	var sawStep bool
	for _, st := range tresp.Steps {
		for _, sp := range st.Spans {
			if sp.Name == "step" && sp.DurNs > 0 {
				sawStep = true
			}
		}
	}
	if !sawStep {
		t.Error("no non-zero step span in any trace")
	}
}

// TestServerNoMetricsConfigured pins the opt-out path: without a registry
// or tracer the endpoints 404 and handlers run uninstrumented.
func TestServerNoMetricsConfigured(t *testing.T) {
	_, _, srv := serveSetup(t,
		online.TrainerConfig{BatchSize: 2, SnapshotEvery: 1, Seed: 5,
			Gate: online.GateConfig{Enabled: false}},
		Config{})
	base := "http://" + srv.Addr()
	for _, path := range []string{"/metrics", "/v1/trace"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d without obs config, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", resp.StatusCode)
	}
}

// expandBraces expands every {a,b} group of a documented metric name.
func expandBraces(s string) []string {
	i := strings.IndexByte(s, '{')
	if i < 0 {
		return []string{s}
	}
	j := i + strings.IndexByte(s[i:], '}')
	var out []string
	for _, alt := range strings.Split(s[i+1:j], ",") {
		out = append(out, expandBraces(s[:i]+alt+s[j+1:])...)
	}
	return out
}

// README.md's metric table and the live registries agree: every documented
// family is exposed with its documented kind by a trainer-backed or a
// fleet-backed (sharded P, autoscaling) server, and every exposed family is
// documented.
func TestREADMEMetricTableMatchesRegistry(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(readme), "Metric families")
	docs := map[string]string{} // anchored name pattern → kind
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "| `") {
			if len(docs) > 0 {
				break
			}
			continue
		}
		cols := strings.Split(line, "|")
		kinds := strings.Split(cols[2], ",")
		for i, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(cols[1], -1) {
			for _, name := range expandBraces(m[1]) {
				docs["^fekf_"+strings.ReplaceAll(name, "*", "[a-z_]+")+"$"] = strings.TrimSpace(kinds[min(i, len(kinds)-1)])
			}
		}
	}

	exposed := map[string]string{} // family → kind, from the # TYPE lines
	scrape := func(srv *Server) {
		for _, line := range strings.Split(getBody(t, "http://"+srv.Addr()+"/metrics"), "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
				exposed[f[2]] = f[3]
			}
		}
	}
	reg := obs.NewRegistry()
	_, _, srv := serveSetup(t, online.TrainerConfig{Seed: 5, Metrics: online.NewMetrics(reg)}, Config{Metrics: reg})
	scrape(srv)
	reg = obs.NewRegistry()
	_, _, srv = fleetSetup(t, fleet.Config{Replicas: 2, PShard: true, Seed: 5, Metrics: fleet.NewMetrics(reg),
		Autoscale: fleet.AutoscaleConfig{Enabled: true, Min: 2, Max: 3}}, Config{Metrics: reg})
	scrape(srv)

	documented := map[string]bool{}
	for pat, kind := range docs {
		rx := regexp.MustCompile(pat)
		n := 0
		for name, k := range exposed {
			if rx.MatchString(name) {
				n++
				documented[name] = true
				if k != kind {
					t.Errorf("%s is a %s, README says %s", name, k, kind)
				}
			}
		}
		if n == 0 {
			t.Errorf("README documents %s, which no server exposes", pat)
		}
	}
	for name := range exposed {
		if !documented[name] {
			t.Errorf("%s is exposed but missing from README's metric table", name)
		}
	}
	if len(exposed) < 50 {
		t.Fatalf("scraped only %d families", len(exposed))
	}
}
