package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.  Updates are single
// atomic adds: lock-free, allocation-free, safe from any goroutine.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n events.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by d (CAS loop; still allocation-free).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets chosen at registration.
// Observe is a linear bucket scan plus two atomic updates — no locks, no
// allocations — so it is safe on per-step and per-request hot paths.
type Histogram struct {
	upper   []float64       // ascending upper bounds, +Inf implicit
	counts  []atomic.Uint64 // len(upper)+1; last is the +Inf bucket
	sumBits atomic.Uint64   // float64 bits of the observation sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DefSecondsBuckets spans 100µs to 10s — the default latency buckets for
// step, checkpoint and request histograms.
var DefSecondsBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// family is one registered metric name: its metadata plus the labelled
// children holding the actual values (or a scrape-time func).
type family struct {
	name    string
	help    string
	typ     MetricType
	labels  []string
	buckets []float64      // histograms only
	fn      func() float64 // func-backed families have no children

	mu       sync.RWMutex
	children map[string]*child
}

// child is one label combination of a family.
type child struct {
	values []string
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

const labelSep = "\xff"

// get returns (creating on first use) the child for a label-value tuple.
func (f *family) get(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s has %d labels, got %d values", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.children[key]; c != nil {
		return c
	}
	c = &child{values: append([]string(nil), values...)}
	switch f.typ {
	case TypeCounter:
		c.ctr = &Counter{}
	case TypeGauge:
		c.gauge = &Gauge{}
	case TypeHistogram:
		c.hist = &Histogram{
			upper:  f.buckets,
			counts: make([]atomic.Uint64, len(f.buckets)+1),
		}
	}
	f.children[key] = c
	return c
}

// CounterVec is a counter family; With resolves one label combination.
// Resolve once at setup and hold the *Counter on hot paths.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values (one per label
// declared at registration; none for an unlabelled family).
func (v *CounterVec) With(values ...string) *Counter { return v.fam.get(values).ctr }

// GaugeVec is a gauge family; With resolves one label combination.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.fam.get(values).gauge }

// HistogramVec is a histogram family; With resolves one label combination.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.fam.get(values).hist }

// Registry holds metric families and scrape-time collectors.  Registration
// is validated (LintName/LintLabel, duplicate detection) and panics on
// programmer error; updates on the returned metrics are atomic and
// allocation-free.
type Registry struct {
	mu         sync.RWMutex
	families   map[string]*family
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// register validates and inserts a family, panicking on lint failures or
// duplicate names — registration is initialization-time programmer
// surface, not a runtime path.
func (r *Registry) register(name, help string, typ MetricType, labels []string, buckets []float64, fn func() float64) *family {
	if err := LintName(name, typ); err != nil {
		panic(err)
	}
	for _, l := range labels {
		if err := LintLabel(l); err != nil {
			panic(fmt.Errorf("obs: metric %q: %w", name, err))
		}
	}
	if typ == TypeHistogram {
		if len(buckets) == 0 {
			panic(fmt.Errorf("obs: histogram %q needs at least one bucket", name))
		}
		buckets = append([]float64(nil), buckets...)
		for i, b := range buckets {
			if math.IsNaN(b) || math.IsInf(b, 0) {
				panic(fmt.Errorf("obs: histogram %q bucket %d is %g", name, i, b))
			}
			if i > 0 && b <= buckets[i-1] {
				panic(fmt.Errorf("obs: histogram %q buckets not ascending at %d", name, i))
			}
		}
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		fn:       fn,
		children: map[string]*child{},
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Errorf("obs: duplicate registration of metric %q", name))
	}
	r.families[name] = f
	return f
}

// Counter registers a counter family (name must end in _total).
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, TypeCounter, labels, nil, nil)}
}

// Gauge registers a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, TypeGauge, labels, nil, nil)}
}

// Histogram registers a histogram family over fixed ascending buckets
// (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{fam: r.register(name, help, TypeHistogram, labels, buckets, nil)}
}

// CounterFunc registers a scrape-time counter backed by fn — for
// monotonic values another layer already maintains (queue push totals,
// transport byte ledgers) so the exposition reads the existing source
// instead of duplicating bookkeeping.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, TypeCounter, nil, nil, fn)
}

// GaugeFunc registers a scrape-time gauge backed by fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, TypeGauge, nil, nil, fn)
}

// AddCollector registers fn to run once at the start of every scrape,
// before any func metric is evaluated — the hook where a layer takes ONE
// consistent snapshot of its stats and caches it for its func metrics.
func (r *Registry) AddCollector(fn func()) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// snapshot returns the collectors and name-sorted families under the lock.
func (r *Registry) snapshot() ([]func(), []*family) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	collectors := make([]func(), len(r.collectors))
	copy(collectors, r.collectors)
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return collectors, fams
}
