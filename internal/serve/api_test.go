package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/fleet"
	"fekf/internal/md"
	"fekf/internal/online"
)

// A box far larger or smaller than the cutoff is refused at the door: a
// 1e18 Å box used to panic the cell grid's allocation on a worker
// goroutine, killing the process, and a 0.01 Å box spun the image scan for
// seconds.  Both endpoints answer 400 on either backend, and the server
// stays healthy.
func TestServerRejectsUnboundedBox(t *testing.T) {
	for _, backend := range []string{"trainer", "fleet"} {
		t.Run(backend, func(t *testing.T) {
			var ds *dataset.Dataset
			var srv *Server
			if backend == "trainer" {
				ds, _, srv = serveSetup(t, online.TrainerConfig{Seed: 5}, Config{})
			} else {
				ds, _, srv = fleetSetup(t, fleet.Config{Replicas: 2, Seed: 5}, Config{})
			}
			base := "http://" + srv.Addr()
			for _, l := range []float64{1e18, 0.01} {
				frame := framePayload(ds, 0)
				frame.Box = [3]float64{l, l, l}
				var e ErrorResponse
				if code, err := postJSON(t, base+"/v1/frames", FramesRequest{Frames: []FramePayload{frame}}, &e); code != http.StatusBadRequest {
					t.Errorf("frames with box %g: %d %v %q", l, code, err, e.Error)
				}
				pred := PredictRequest{Pos: []float64{0, 0, 0}, Box: frame.Box, Types: []int{0}}
				if code, err := postJSON(t, base+"/v1/predict", pred, &e); code != http.StatusBadRequest {
					t.Errorf("predict with box %g: %d %v %q", l, code, err, e.Error)
				}
			}
			getBody(t, base+"/healthz")
		})
	}
}

// Every configuration md.Systems builds, at the paper's scale and the tiny
// one, passes the box check at both model cutoffs.
func TestCheckBoxAcceptsSystems(t *testing.T) {
	for name, spec := range md.Systems() {
		small, _ := spec.TinyBuild()
		paper, _ := spec.Build(1)
		for _, sys := range []*md.System{small, paper} {
			for _, rc := range []float64{deepmd.TinyConfig(sys).Rc, deepmd.PaperConfig(spec, sys).Rc} {
				if err := md.CheckBox(sys.Box, rc, sys.NumAtoms()); err != nil {
					t.Errorf("%s (%d atoms): %v", name, sys.NumAtoms(), err)
				}
			}
		}
	}
}

// decodeBody runs the handlers' bounded JSON decode over raw bytes.
func decodeBody(body []byte, v any) bool {
	r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
	return decodeJSON(httptest.NewRecorder(), r, v)
}

// requireQuickEnv builds the environment of an accepted configuration,
// which md.CheckBox bounds to milliseconds of neighbour scan.
func requireQuickEnv(t *testing.T, cfg deepmd.Config, sys *md.System) {
	t0 := time.Now()
	if _, err := deepmd.BuildEnv(cfg, []*md.System{sys}); err != nil {
		t.Fatalf("accepted configuration fails BuildEnv: %v", err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("accepted configuration (box %v, %d atoms) took %v in BuildEnv", sys.Box, sys.NumAtoms(), d)
	}
}

// boxSeeds returns labelled frames in the two crashing boxes and in their
// own.
func boxSeeds(ds *dataset.Dataset) []FramePayload {
	var out []FramePayload
	for i, l := range []float64{1e18, 0.01, ds.Snapshots[0].Box[0]} {
		p := framePayload(ds, i)
		p.Box = [3]float64{l, l, l}
		out = append(out, p)
	}
	return out
}

// FuzzPredictRequest feeds arbitrary bodies through the /v1/predict decode
// and validation; whatever they accept must build its environment quickly.
func FuzzPredictRequest(f *testing.F) {
	ds, m, _ := tinyCu(f)
	f.Add([]byte(`{"pos":[0,0,0],"box":[1e18,1e18,1e18],"types":[0]}`))
	for _, p := range boxSeeds(ds) {
		body, _ := json.Marshal(PredictRequest{Pos: p.Pos, Box: p.Box, Types: p.Types})
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req PredictRequest
		if !decodeBody(body, &req) {
			return
		}
		if sys, err := req.System(ds.Species, m.Cfg.Rc); err == nil {
			requireQuickEnv(t, m.Cfg, sys)
		}
	})
}

// FuzzFramesRequest does the same for /v1/frames bodies, validating each
// frame as ingest does but at any atom count (a live backend locks it to
// its first frame's).
func FuzzFramesRequest(f *testing.F) {
	ds, m, _ := tinyCu(f)
	for _, p := range boxSeeds(ds) {
		body, _ := json.Marshal(FramesRequest{Frames: []FramePayload{p}})
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req FramesRequest
		if !decodeBody(body, &req) {
			return
		}
		for i := range req.Frames {
			s := req.Frames[i].Snapshot()
			if online.ValidateFrame(&s, ds.Species, m.Cfg.Rc, 0) == nil {
				requireQuickEnv(t, m.Cfg, deepmd.SnapshotSystem(ds, &s))
			}
		}
	})
}
