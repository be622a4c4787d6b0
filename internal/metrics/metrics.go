// Package metrics is a dependency-free Prometheus-text-exposition metric
// registry for the serving tier. It implements exactly the subset the server
// needs — monotonic counters, scrape-time gauges, and fixed-bucket latency
// histograms, optionally split by one label — with a lock-free observation
// hot path: counters are single atomic adds, and a histogram observation is
// one atomic bucket increment plus one CAS-loop float add for the sum, so
// instrumenting the match path costs nanoseconds, not microseconds.
//
// A Registry renders its collectors in registration order as Prometheus
// text format (version 0.0.4): one # HELP / # TYPE header per family, then
// the sample lines. Everything is safe for concurrent use; scraping never
// blocks observers.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Collector renders one metric family (HELP/TYPE header plus samples).
type Collector interface {
	// Name returns the family name (used to reject duplicate registration).
	Name() string
	// Collect writes the family in Prometheus text format.
	Collect(w io.Writer)
}

// Registry is an ordered set of collectors.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
	names      map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// MustRegister adds collectors, panicking on a duplicate family name —
// registration happens once at construction time, so a duplicate is a
// programming error, not a runtime condition.
func (r *Registry) MustRegister(cs ...Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range cs {
		if r.names[c.Name()] {
			panic(fmt.Sprintf("metrics: duplicate family %q", c.Name()))
		}
		r.names[c.Name()] = true
		r.collectors = append(r.collectors, c)
	}
}

// Render writes every registered family in registration order.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	cs := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()
	for _, c := range cs {
		c.Collect(w)
	}
}

// header writes the # HELP / # TYPE preamble of one family.
func header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// fmtValue renders a sample value the way Prometheus expects (integers
// without an exponent, +Inf spelled out).
func fmtValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Counter is a monotonically increasing counter.
type Counter struct {
	name, help, labels string
	v                  atomic.Uint64
}

// NewCounter returns a counter family with a single unlabeled series.
// labels, when non-empty, is a pre-rendered label set like `{op="x"}`.
func NewCounter(name, help string) *Counter {
	return &Counter{name: name, help: help}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Name implements Collector.
func (c *Counter) Name() string { return c.name }

// Collect implements Collector.
func (c *Counter) Collect(w io.Writer) {
	header(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s%s %d\n", c.name, c.labels, c.v.Load())
}

// CounterVec is a counter family split by one or more labels. Children are
// created up front (WithLabelValues) or lazily; observation on an existing
// child is a single atomic add.
type CounterVec struct {
	name, help string
	labels     []string
	mu         sync.RWMutex
	children   map[string]*Counter
	order      []string
}

// NewCounterVec returns a labeled counter family.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{name: name, help: help, labels: labels, children: make(map[string]*Counter)}
}

// WithLabelValues returns (creating if needed) the child counter for the
// label values, which must match the family's label names positionally.
func (v *CounterVec) WithLabelValues(values ...string) *Counter {
	key := strings.Join(values, "\x00")
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.children[key]; ok {
		return c
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	var lb strings.Builder
	lb.WriteByte('{')
	for i, l := range v.labels {
		if i > 0 {
			lb.WriteByte(',')
		}
		fmt.Fprintf(&lb, "%s=%q", l, values[i])
	}
	lb.WriteByte('}')
	c = &Counter{name: v.name, labels: lb.String()}
	v.children[key] = c
	v.order = append(v.order, key)
	return c
}

// Name implements Collector.
func (v *CounterVec) Name() string { return v.name }

// Collect implements Collector.
func (v *CounterVec) Collect(w io.Writer) {
	header(w, v.name, v.help, "counter")
	v.mu.RLock()
	order := append([]string(nil), v.order...)
	children := make([]*Counter, len(order))
	for i, val := range order {
		children[i] = v.children[val]
	}
	v.mu.RUnlock()
	for _, c := range children {
		fmt.Fprintf(w, "%s%s %d\n", c.name, c.labels, c.v.Load())
	}
}

// CounterFunc is a counter family whose single series is read at scrape
// time — for exporting monotonic totals that already live elsewhere (a
// server atomic, a cache's hit tally) without double accounting.
type CounterFunc struct {
	name, help string
	fn         func() float64
}

// NewCounterFunc returns a scrape-time counter family.
func NewCounterFunc(name, help string, fn func() float64) *CounterFunc {
	return &CounterFunc{name: name, help: help, fn: fn}
}

// Name implements Collector.
func (c *CounterFunc) Name() string { return c.name }

// Collect implements Collector.
func (c *CounterFunc) Collect(w io.Writer) {
	header(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %s\n", c.name, fmtValue(c.fn()))
}

// GaugeFunc is a gauge evaluated at scrape time.
type GaugeFunc struct {
	name, help string
	fn         func() float64
}

// NewGaugeFunc returns a gauge family whose single series is computed by fn
// on every scrape.
func NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	return &GaugeFunc{name: name, help: help, fn: fn}
}

// Name implements Collector.
func (g *GaugeFunc) Name() string { return g.name }

// Collect implements Collector.
func (g *GaugeFunc) Collect(w io.Writer) {
	header(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.name, fmtValue(g.fn()))
}

// InfoGauge renders a constant-1 series carrying identity labels (the
// Prometheus "info metric" idiom, e.g. the served index generation id).
type InfoGauge struct {
	name, help, label string
	mu                sync.Mutex
	value             string
}

// NewInfoGauge returns an info gauge; SetLabelValue replaces the identity.
func NewInfoGauge(name, help, label string) *InfoGauge {
	return &InfoGauge{name: name, help: help, label: label}
}

// SetLabelValue replaces the identity label value.
func (g *InfoGauge) SetLabelValue(v string) {
	g.mu.Lock()
	g.value = v
	g.mu.Unlock()
}

// Name implements Collector.
func (g *InfoGauge) Name() string { return g.name }

// Collect implements Collector.
func (g *InfoGauge) Collect(w io.Writer) {
	header(w, g.name, g.help, "gauge")
	g.mu.Lock()
	v := g.value
	g.mu.Unlock()
	fmt.Fprintf(w, "%s{%s=%q} 1\n", g.name, g.label, v)
}

// Histogram is a fixed-bucket histogram. Observation is lock-free: one
// atomic increment on the bucket plus a CAS-loop float add on the sum.
// Bucket counts are stored per bucket (not cumulatively); Collect
// accumulates them into the cumulative `le` form Prometheus expects, which
// keeps the hot path a single add.
type Histogram struct {
	name, help, labels string
	bounds             []float64 // upper bounds, ascending; +Inf implicit
	counts             []atomic.Uint64
	sumBits            atomic.Uint64 // math.Float64bits of the running sum
}

// NewHistogram returns a histogram family with the given ascending upper
// bounds (the +Inf bucket is implicit).
func NewHistogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{name: name, help: help, bounds: bounds}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// ExpBuckets returns n ascending bounds starting at start, each factor
// times the previous — the standard latency bucket ladder.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search over a dozen bounds is slower than the branch predictor
	// on a linear scan this short.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
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

// Name implements Collector.
func (h *Histogram) Name() string { return h.name }

// Collect implements Collector.
func (h *Histogram) Collect(w io.Writer) {
	header(w, h.name, h.help, "histogram")
	h.collectSamples(w)
}

// collectSamples writes the bucket/sum/count lines without the header (the
// vec form shares one header across children).
func (h *Histogram) collectSamples(w io.Writer) {
	sep := "{"
	if h.labels != "" {
		sep = strings.TrimSuffix(h.labels, "}") + ","
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%sle=%q} %d\n", h.name, sep, fmtValue(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", h.name, sep, cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", h.name, h.labels, math.Float64frombits(h.sumBits.Load()))
	fmt.Fprintf(w, "%s_count%s %d\n", h.name, h.labels, cum)
}

// HistogramVec is a histogram family split by one label (e.g. per-stage
// latency). Children share the bucket layout.
type HistogramVec struct {
	name, help, label string
	bounds            []float64
	mu                sync.RWMutex
	children          map[string]*Histogram
	order             []string
}

// NewHistogramVec returns a labeled histogram family.
func NewHistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	return &HistogramVec{
		name: name, help: help, label: label, bounds: bounds,
		children: make(map[string]*Histogram),
	}
}

// WithLabelValue returns (creating if needed) the child for value. Callers
// on the hot path should hold on to the child: the lookup takes an RLock,
// the observation itself is lock-free.
func (v *HistogramVec) WithLabelValue(value string) *Histogram {
	v.mu.RLock()
	h, ok := v.children[value]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok = v.children[value]; ok {
		return h
	}
	h = NewHistogram(v.name, "", v.bounds)
	h.labels = fmt.Sprintf("{%s=%q}", v.label, value)
	v.children[value] = h
	v.order = append(v.order, value)
	return h
}

// Name implements Collector.
func (v *HistogramVec) Name() string { return v.name }

// Collect implements Collector.
func (v *HistogramVec) Collect(w io.Writer) {
	header(w, v.name, v.help, "histogram")
	v.mu.RLock()
	order := append([]string(nil), v.order...)
	children := make([]*Histogram, len(order))
	for i, val := range order {
		children[i] = v.children[val]
	}
	v.mu.RUnlock()
	for _, h := range children {
		h.collectSamples(w)
	}
}
