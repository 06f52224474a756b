// Package telemetry is the runtime-observability substrate of the Butterfly
// service: lock-free counters, gauges and fixed-bucket histograms behind a
// named registry, with a consistent snapshot API and Prometheus-text /
// JSON encoders (see encode.go) and an HTTP exposition mux (see http.go).
//
// The package is deliberately dependency-free and hot-path friendly:
//
//   - Every instrument is a fixed set of atomics. Inc, Add, Set and Observe
//     perform no allocation and take no lock, so they are safe to call from
//     the pipeline stages and the publisher's perturbation loop under the
//     race detector with negligible overhead.
//   - Instruments are registered once, up front, with constant labels. There
//     is no dynamic label lookup on the hot path — a labeled family is just
//     N pre-registered instruments.
//   - Telemetry is observation-only by contract: nothing in this package
//     feeds back into the mining, perturbation or emission of published
//     windows. The pipeline's A/B tests pin published bytes identical with
//     telemetry enabled and disabled.
//
// Metric naming follows the Prometheus conventions: `snake_case` names,
// a `_total` suffix on counters, and base units (seconds) in histogram
// names. Every metric emitted by this repository is documented in
// OBSERVABILITY.md; a test diffs that document against the live registry in
// both directions, so doc and code cannot drift.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Labels is a set of constant labels attached to an instrument at
// registration time. Series identity is the sorted rendering of the set;
// the hot path never touches it.
type Labels map[string]string

// render produces the canonical `{k="v",...}` form (empty string for no
// labels), with keys sorted so equal sets render equally.
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "{"
	for i, k := range keys {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%q", k, l[k])
	}
	return s + "}"
}

// Counter is a monotonically increasing uint64. The zero value is usable
// but unregistered; obtain registered counters from Registry.Counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d with a CAS loop (lock-free, no allocation).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeFunc is a gauge whose value is computed at snapshot time by a
// caller-supplied function — the idiom for values that already live
// somewhere cheap to read (a channel length, an atomic timestamp), where a
// push-updated Gauge would cost hot-path writes only to be stale at scrape.
// The function must be safe for concurrent use and must not block.
type GaugeFunc struct {
	fn func() float64
}

// Value computes the current value.
func (g *GaugeFunc) Value() float64 { return g.fn() }

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// model: Observe(v) increments the first bucket whose upper bound admits v
// (or the implicit +Inf bucket) and the running sum. Buckets are fixed at
// registration; observations are lock-free. The total count is not kept
// separately: it is the sum of the bucket counters, so a reader that takes
// both from one pass can never see a bucket above the count.
type Histogram struct {
	bounds []float64       // strictly increasing upper bounds; +Inf implicit
	counts []atomic.Uint64 // per bucket, the last one +Inf
	sum    atomic.Uint64   // float64 bits, CAS-updated
}

// DefBuckets is the default duration ladder (seconds), spanning 100µs to
// 10s — wide enough for a per-window mining stage on a large window and
// fine enough to see a cache-hit republication path.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

func newHistogram(buckets []float64) (*Histogram, error) {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			return nil, fmt.Errorf("telemetry: histogram buckets not strictly increasing at %d (%v <= %v)",
				i, buckets[i], buckets[i-1])
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
	return h, nil
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0 — the idiom for stage
// wall-time: `defer h.ObserveSince(time.Now())` or an explicit pair.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations: the sum of the bucket counters.
func (h *Histogram) Count() (n uint64) {
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the upper bounds and the CUMULATIVE counts per bound
// (Prometheus `le` semantics), excluding the +Inf bucket (whose cumulative
// count is Count()). The two slices are freshly allocated.
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	bounds, cumulative, _ = h.load()
	return bounds, cumulative
}

// load reads every bucket counter once and returns the bounds, the
// cumulative counts per bound and the total count including +Inf — a
// consistent view even under concurrent Observe calls.
func (h *Histogram) load() (bounds []float64, cumulative []uint64, count uint64) {
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]uint64, len(h.bounds))
	for i := range h.counts {
		count += h.counts[i].Load()
		if i < len(cumulative) {
			cumulative[i] = count
		}
	}
	return bounds, cumulative, count
}

// Instrument types, as exposed in snapshots and the text format.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// series is one registered instrument under a family.
type series struct {
	labels string // canonical rendering, "" when unlabeled
	metric any    // *Counter | *Gauge | *GaugeFunc | *Histogram
}

// family groups the series sharing a metric name.
type family struct {
	name     string
	help     string
	typ      string
	series   []*series
	byLabels map[string]*series
}

// Registry holds named instruments. Registration takes a lock; the
// instruments themselves never do. Registering the same (name, labels)
// again returns the existing instrument, so independent components may
// idempotently wire the same registry; re-registering a name under a
// different instrument type panics (a wiring bug, not a runtime
// condition).
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func (r *Registry) register(name, help, typ string, labels Labels, build func() any) any {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byLabels: map[string]*series{}}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.typ, typ))
	}
	key := labels.render()
	if s := f.byLabels[key]; s != nil {
		return s.metric
	}
	s := &series{labels: key, metric: build()}
	f.byLabels[key] = s
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
	return s.metric
}

// Counter registers (or returns the existing) counter name+labels.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.register(name, help, TypeCounter, labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or returns the existing) gauge name+labels.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.register(name, help, TypeGauge, labels, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a pull-style gauge whose value is fn() at snapshot
// time. It shares the gauge type (and exposition) with Gauge, so a family
// may not mix the two kinds under one name with the same labels — the first
// registration wins, like every other idempotent re-registration.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) *GaugeFunc {
	if fn == nil {
		panic("telemetry: nil GaugeFunc function")
	}
	return r.register(name, help, TypeGauge, labels, func() any { return &GaugeFunc{fn: fn} }).(*GaugeFunc)
}

// Histogram registers (or returns the existing) histogram name+labels with
// the given bucket upper bounds (nil selects DefBuckets). Conflicting
// bucket layouts for the same series are a wiring bug and panic.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	m := r.register(name, help, TypeHistogram, labels, func() any {
		h, err := newHistogram(buckets)
		if err != nil {
			panic(err)
		}
		return h
	}).(*Histogram)
	return m
}

// Names returns every registered metric name, sorted. The doc-sync test
// diffs this list against OBSERVABILITY.md.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.families))
	for _, f := range r.families {
		names = append(names, f.name)
	}
	sort.Strings(names)
	return names
}

// CounterValue returns the summed value of every series of the named
// counter (0 when absent) — the CLI summary reads its numbers through this
// so the normal and interrupted paths cannot diverge.
func (r *Registry) CounterValue(name string) uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f := r.byName[name]
	if f == nil || f.typ != TypeCounter {
		return 0
	}
	var total uint64
	for _, s := range f.series {
		total += s.metric.(*Counter).Value()
	}
	return total
}
