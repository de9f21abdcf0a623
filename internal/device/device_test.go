package device

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestKernelNsRoofline(t *testing.T) {
	m := CostModel{LaunchNs: 10, FlopsPerNs: 100, BytesPerNs: 10}
	// compute bound: 1000 flops -> 10ns compute, 10 bytes -> 1ns memory
	if got := m.KernelNs(1000, 10); got != 20 {
		t.Fatalf("compute-bound kernel: got %v want 20", got)
	}
	// memory bound: 10 flops -> 0.1ns, 1000 bytes -> 100ns
	if got := m.KernelNs(10, 1000); got != 110 {
		t.Fatalf("memory-bound kernel: got %v want 110", got)
	}
}

func TestLaunchAccounting(t *testing.T) {
	d := New("t", CostModel{LaunchNs: 1, FlopsPerNs: 1, BytesPerNs: 1})
	d.Launch("gemm", 100, 50)
	d.Launch("tanh", 10, 10)
	c := d.Counters()
	if c.Kernels != 2 || c.Flops != 110 || c.Bytes != 60 {
		t.Fatalf("counters = %+v", c)
	}
	// gemm: 1 + max(100,50) = 101; tanh: 1 + 10 = 11
	if math.Abs(c.ModeledNs-112) > 1e-6 {
		t.Fatalf("modeled ns = %v want 112", c.ModeledNs)
	}
}

func TestPhaseAttribution(t *testing.T) {
	d := New("t", CostModel{LaunchNs: 1, FlopsPerNs: 1, BytesPerNs: 1})
	d.SetPhase(PhaseForward)
	d.Launch("a", 9, 0)
	d.SetPhase(PhaseGradient)
	d.Launch("b", 0, 19)
	d.SetPhase(PhaseOptimizer)
	d.Launch("c", 4, 4)
	c := d.Counters()
	if c.PhaseKerns[PhaseForward] != 1 || c.PhaseKerns[PhaseGradient] != 1 || c.PhaseKerns[PhaseOptimizer] != 1 {
		t.Fatalf("phase kernels = %+v", c.PhaseKerns)
	}
	if math.Abs(c.PhaseNs[PhaseForward]-10) > 1e-6 {
		t.Fatalf("forward ns = %v", c.PhaseNs[PhaseForward])
	}
	if math.Abs(c.PhaseNs[PhaseGradient]-20) > 1e-6 {
		t.Fatalf("gradient ns = %v", c.PhaseNs[PhaseGradient])
	}
	if math.Abs(c.PhaseNs[PhaseOptimizer]-5) > 1e-6 {
		t.Fatalf("optimizer ns = %v", c.PhaseNs[PhaseOptimizer])
	}
}

func TestAllocatorPeak(t *testing.T) {
	d := New("t", A100())
	d.Alloc(100)
	d.Alloc(200)
	d.Free(100)
	d.Alloc(50)
	c := d.Counters()
	if c.LiveBytes != 250 {
		t.Fatalf("live = %d want 250", c.LiveBytes)
	}
	if c.PeakBytes != 300 {
		t.Fatalf("peak = %d want 300", c.PeakBytes)
	}
	d.ResetPeak()
	if got := d.Counters().PeakBytes; got != 250 {
		t.Fatalf("peak after reset = %d want 250", got)
	}
}

func TestCountersSub(t *testing.T) {
	d := New("t", CostModel{LaunchNs: 1})
	d.Launch("a", 0, 0)
	before := d.Counters()
	d.Launch("b", 0, 0)
	d.Launch("c", 0, 0)
	delta := d.Counters().Sub(before)
	if delta.Kernels != 2 {
		t.Fatalf("delta kernels = %d want 2", delta.Kernels)
	}
}

func TestConcurrentLaunch(t *testing.T) {
	d := New("t", A100())
	var wg sync.WaitGroup
	const g, per = 8, 1000
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				d.Launch("k", 1, 1)
				d.Alloc(8)
				d.Free(8)
			}
		}()
	}
	wg.Wait()
	c := d.Counters()
	if c.Kernels != g*per {
		t.Fatalf("kernels = %d want %d", c.Kernels, g*per)
	}
	if c.LiveBytes != 0 {
		t.Fatalf("live = %d want 0", c.LiveBytes)
	}
}

func TestNilDeviceSafe(t *testing.T) {
	var d *Device
	d.Launch("x", 1, 1) // must not panic
	d.Alloc(10)
	d.Free(10)
	d.Reset()
	d.ResetPeak()
	if c := d.Counters(); c.Kernels != 0 {
		t.Fatalf("nil device counters = %+v", c)
	}
}

func TestPhaseString(t *testing.T) {
	names := map[Phase]string{PhaseForward: "forward", PhaseGradient: "gradient", PhaseOptimizer: "optimizer", PhaseOther: "other"}
	for p, want := range names {
		if p.String() != want {
			t.Fatalf("phase %d string = %q want %q", p, p.String(), want)
		}
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	d := New("t", CostModel{LaunchNs: 10, FlopsPerNs: 1, BytesPerNs: 1})
	tr := d.StartTrace()
	d.SetPhase(PhaseForward)
	d.Launch("gemm", 100, 0)
	d.SetPhase(PhaseOptimizer)
	d.Launch("p_update", 50, 0)
	d.StopTrace()
	d.Launch("after", 1, 1) // must not be recorded
	if tr.NumEvents() != 2 {
		t.Fatalf("events = %d want 2", tr.NumEvents())
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.TraceEvents) != 2 || parsed.TraceEvents[0].Name != "gemm" {
		t.Fatalf("trace = %+v", parsed.TraceEvents)
	}
	if parsed.TraceEvents[1].Cat != "optimizer" || parsed.TraceEvents[1].Dur <= 0 {
		t.Fatalf("trace = %+v", parsed.TraceEvents)
	}
}

// TestConcurrentLaunchAccounting: the host worker pool launches kernels
// from many goroutines against one device; every counter (including the
// modeled time, which accumulates in integer picoseconds) must land on
// the exact serial totals regardless of interleaving.
func TestConcurrentLaunchAccounting(t *testing.T) {
	d := New("concurrent", A100())
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				d.Launch("conc_kernel", 10, 80)
				d.Alloc(64)
				d.Free(64)
			}
		}()
	}
	wg.Wait()
	c := d.Counters()
	const total = goroutines * perG
	if c.Kernels != total {
		t.Fatalf("kernels = %d want %d", c.Kernels, total)
	}
	if c.Flops != 10*total || c.Bytes != 80*total {
		t.Fatalf("flops/bytes = %d/%d want %d/%d", c.Flops, c.Bytes, 10*total, 80*total)
	}
	perLaunchPs := int64(d.model.KernelNs(10, 80) * 1000)
	if want := float64(perLaunchPs*total) / 1000; c.ModeledNs != want {
		t.Fatalf("modeled ns = %v want %v", c.ModeledNs, want)
	}
	if c.LiveBytes != 0 {
		t.Fatalf("live bytes = %d want 0", c.LiveBytes)
	}
}

// TestConcurrentTraceAttachDetach: attaching and detaching a tracer while
// launches are in flight must be race-free (the tracer pointer is atomic).
func TestConcurrentTraceAttachDetach(t *testing.T) {
	d := New("trace-conc", A100())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			d.Launch("k", 5, 40)
		}
	}()
	for i := 0; i < 50; i++ {
		tr := d.StartTrace()
		d.StopTrace()
		_ = tr.NumEvents()
	}
	<-done
}
