// Package device simulates a GPU-like accelerator for the purposes of the
// PPoPP'24 FEKF reproduction.
//
// The paper's systems evaluation counts CUDA kernel launches (Figure 7(b)),
// decomposes iteration time into forward / gradient / optimizer phases
// (Figure 7(c)) and tracks peak device memory of the P-matrix update
// (Section 5.3).  All three are properties of the operator graph executed on
// the device rather than of the silicon, so this package reproduces them by
// accounting: every tensor kernel reports its launch, floating point
// operation count and bytes moved, and the device converts those into a
// modeled execution time using an A100-like cost model.  An allocator
// tracks live and peak bytes so that the memory experiment can be replayed
// exactly.
//
// A Device is deliberately cheap: all counters are atomics so a device can
// be shared, although in the cluster simulation each worker goroutine owns
// its own Device (mirroring one GPU per rank).
package device

import (
	"sync/atomic"
)

// Phase labels a stage of a training iteration.  The paper's Figure 7(c)
// splits iteration time into the network forward pass, the gradient
// (backward) pass and the Kalman-filter update flow.
type Phase int32

// Phases of a training iteration, in the order the paper reports them.
const (
	PhaseForward Phase = iota
	PhaseGradient
	PhaseOptimizer
	PhaseOther
	numPhases
)

// String returns the human-readable phase name used in experiment output.
func (p Phase) String() string {
	switch p {
	case PhaseForward:
		return "forward"
	case PhaseGradient:
		return "gradient"
	case PhaseOptimizer:
		return "optimizer"
	default:
		return "other"
	}
}

// CostModel converts kernel launch counts, flops and bytes into modeled
// execution nanoseconds.  The default constants approximate one NVIDIA A100
// (the paper's testbed): 9.7 TFLOP/s double precision, 900 GB/s HBM
// bandwidth (the figure quoted in the paper), and a few microseconds of
// launch latency, which is exactly the overhead the paper's kernel-fusion
// optimizations remove.
type CostModel struct {
	// LaunchNs is the fixed overhead per kernel launch in nanoseconds.
	LaunchNs float64
	// FlopsPerNs is the arithmetic throughput in flops per nanosecond.
	FlopsPerNs float64
	// BytesPerNs is the memory bandwidth in bytes per nanosecond.
	BytesPerNs float64
}

// A100 returns the cost model used throughout the reproduction; it mirrors
// the hardware described in the paper's experiment setup.
func A100() CostModel {
	return CostModel{
		LaunchNs:   4000, // ~4 us per launch, typical for small kernels
		FlopsPerNs: 9700, // 9.7 TFLOP/s FP64
		BytesPerNs: 900,  // 900 GB/s HBM
	}
}

// KernelNs returns the modeled duration of a single kernel.  A kernel costs
// its launch overhead plus the slower of its compute and memory phases
// (roofline model).
func (m CostModel) KernelNs(flops, bytes int64) float64 {
	var compute, memory float64
	if m.FlopsPerNs > 0 {
		compute = float64(flops) / m.FlopsPerNs
	}
	if m.BytesPerNs > 0 {
		memory = float64(bytes) / m.BytesPerNs
	}
	t := compute
	if memory > t {
		t = memory
	}
	return m.LaunchNs + t
}

// Counters is a snapshot of a device's accounting state.
type Counters struct {
	Kernels    int64   // kernel launches
	Flops      int64   // floating point operations executed
	Bytes      int64   // bytes moved through device memory
	ModeledNs  float64 // modeled execution time, nanoseconds
	LiveBytes  int64   // currently allocated bytes
	PeakBytes  int64   // high-water mark of allocated bytes
	PhaseNs    [4]float64
	PhaseKerns [4]int64
}

// Sub returns the counter deltas c-o; allocator fields keep c's values.
func (c Counters) Sub(o Counters) Counters {
	d := Counters{
		Kernels:   c.Kernels - o.Kernels,
		Flops:     c.Flops - o.Flops,
		Bytes:     c.Bytes - o.Bytes,
		ModeledNs: c.ModeledNs - o.ModeledNs,
		LiveBytes: c.LiveBytes,
		PeakBytes: c.PeakBytes,
	}
	for i := range d.PhaseNs {
		d.PhaseNs[i] = c.PhaseNs[i] - o.PhaseNs[i]
		d.PhaseKerns[i] = c.PhaseKerns[i] - o.PhaseKerns[i]
	}
	return d
}

// Device is one simulated accelerator.
type Device struct {
	name  string
	model CostModel

	phase atomic.Int32

	kernels atomic.Int64
	flops   atomic.Int64
	bytes   atomic.Int64
	// modeled time is accumulated in integer picoseconds to stay atomic.
	modeledPs atomic.Int64
	phasePs   [numPhases]atomic.Int64
	phaseKern [numPhases]atomic.Int64

	live atomic.Int64
	peak atomic.Int64

	tracer atomic.Pointer[Tracer]
}

// New returns a device with the given name and cost model.
func New(name string, model CostModel) *Device {
	return &Device{name: name, model: model}
}

// Default is a process-wide device used when code does not care about
// placement (unit tests, examples).  Training code creates explicit devices.
var Default = New("gpu0", A100())

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// SetPhase labels subsequent launches with the given iteration phase and
// returns the previous phase so callers can restore it.
func (d *Device) SetPhase(p Phase) Phase {
	old := d.phase.Swap(int32(p))
	return Phase(old)
}

// Launch records the execution of one kernel with the given cost.  It is
// the single entry point all simulated kernels go through; the fused kernels
// of the paper's Opt2/Opt3 call it once where the unfused graph calls it
// several times.
//
// Launch is safe for concurrent use and lock-free on the hot path: every
// counter is an atomic, so the totals (and hence the modeled device time)
// are identical no matter how host goroutines interleave their launches —
// the property that lets the worker pool parallelize kernels without
// perturbing the simulated accounting.
func (d *Device) Launch(name string, flops, bytes int64) {
	if d == nil {
		return
	}
	d.launch(name, Phase(d.phase.Load()), flops, bytes)
}

// LaunchPhase records one kernel charged to an explicit phase, regardless
// of the device's current phase.  Stages that may execute concurrently
// with another phase on the same device — the pipelined Kalman drain runs
// its P refresh while the next measurement's forward/backward is in
// flight — use it so overlap can neither misattribute nor double-charge
// the per-phase totals.
func (d *Device) LaunchPhase(name string, phase Phase, flops, bytes int64) {
	if d == nil {
		return
	}
	d.launch(name, phase, flops, bytes)
}

func (d *Device) launch(name string, phase Phase, flops, bytes int64) {
	d.kernels.Add(1)
	d.flops.Add(flops)
	d.bytes.Add(bytes)
	ns := d.model.KernelNs(flops, bytes)
	ps := int64(ns * 1000)
	d.modeledPs.Add(ps)
	p := int32(phase)
	if p < 0 || p >= int32(numPhases) {
		p = int32(PhaseOther)
	}
	d.phasePs[p].Add(ps)
	d.phaseKern[p].Add(1)
	if tr := d.tracer.Load(); tr != nil {
		tr.record(name, Phase(p), ns)
	}
}

// Alloc records an allocation of n bytes of device memory and updates the
// peak if needed.
func (d *Device) Alloc(n int64) {
	if d == nil || n == 0 {
		return
	}
	live := d.live.Add(n)
	for {
		p := d.peak.Load()
		if live <= p || d.peak.CompareAndSwap(p, live) {
			return
		}
	}
}

// Free records that n bytes of device memory were released.
func (d *Device) Free(n int64) {
	if d == nil || n == 0 {
		return
	}
	d.live.Add(-n)
}

// ResetPeak sets the peak allocation mark back to the current live bytes,
// so an experiment can measure the peak of one region of interest.
func (d *Device) ResetPeak() {
	if d == nil {
		return
	}
	d.peak.Store(d.live.Load())
}

// Counters returns a snapshot of the accounting state.
func (d *Device) Counters() Counters {
	if d == nil {
		return Counters{}
	}
	c := Counters{
		Kernels:   d.kernels.Load(),
		Flops:     d.flops.Load(),
		Bytes:     d.bytes.Load(),
		ModeledNs: float64(d.modeledPs.Load()) / 1000,
		LiveBytes: d.live.Load(),
		PeakBytes: d.peak.Load(),
	}
	for i := 0; i < int(numPhases); i++ {
		c.PhaseNs[i] = float64(d.phasePs[i].Load()) / 1000
		c.PhaseKerns[i] = d.phaseKern[i].Load()
	}
	return c
}

// Reset clears every counter, including the allocator state.
func (d *Device) Reset() {
	if d == nil {
		return
	}
	d.kernels.Store(0)
	d.flops.Store(0)
	d.bytes.Store(0)
	d.modeledPs.Store(0)
	for i := 0; i < int(numPhases); i++ {
		d.phasePs[i].Store(0)
		d.phaseKern[i].Store(0)
	}
	d.live.Store(0)
	d.peak.Store(0)
}
