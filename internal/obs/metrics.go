// Package obs is the repo's dependency-free telemetry substrate: a
// race-safe metrics registry (atomic counters, gauges, and fixed-bucket
// latency histograms, snapshot-able to Prometheus text format and JSON) and
// lightweight span tracing (obs.Start child spans over context) that can
// export a run's span tree as Chrome trace_event JSON.
//
// Two properties govern every design choice:
//
//   - Instrumentation must never change what the system computes or prints:
//     metrics and spans live entirely off the result path, so golden
//     byte-identical output is unaffected by telemetry being on or off.
//   - Disabled instrumentation must cost (almost) nothing: obs.Start on a
//     context without a tracer performs no allocation and returns a nil
//     *Span whose methods are no-ops, and metric handles are resolved once
//     into package-level variables so the hot path touches only an atomic.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a caller bug; counters only grow).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that can move both ways.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefLatencyBuckets are the default histogram bounds for operation
// latencies in seconds: 100µs to 60s, roughly logarithmic — wide enough for
// both a cache Get and a multi-second campaign shard.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket cumulative histogram (Prometheus semantics:
// bucket i counts observations ≤ bounds[i]; an implicit +Inf bucket counts
// everything). Observations are lock-free atomics.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; immutable after creation
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample. NaN samples are dropped (they would poison
// the sum without being attributable to any bucket).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Registry is a named collection of metrics. All methods are safe for
// concurrent use; handle lookups (Counter/Gauge/Histogram) get-or-create
// under a lock, so callers on hot paths should resolve their handles once
// (package-level variables) and hit only the atomic afterwards.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide registry every layer's package-level
// metric handles resolve against; locd's /metrics endpoint serves it.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls reuse the existing buckets regardless of
// the bounds argument — one name, one layout).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// HistogramSnapshot is one histogram's state in a Snapshot.
type HistogramSnapshot struct {
	Name    string    `json:"name"`
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"` // per-bound counts plus the +Inf bucket
}

// Snapshot is a point-in-time copy of a registry, JSON-encodable.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters,omitempty"`
	Gauges     map[string]int64    `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Counters: make(map[string]int64), Gauges: make(map[string]int64)}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	names := make([]string, 0, len(r.histograms))
	for name := range r.histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := r.histograms[name]
		hs := HistogramSnapshot{Name: name, Count: h.Count(), Sum: h.Sum(), Bounds: h.bounds}
		hs.Buckets = make([]int64, len(h.buckets))
		for i := range h.buckets {
			hs.Buckets[i] = h.buckets[i].Load()
		}
		s.Histograms = append(s.Histograms, hs)
	}
	return s
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples, histograms
// as cumulative _bucket/_sum/_count series. Families are sorted by name so
// the output is stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	names := sortedKeys(snap.Counters)
	for _, name := range names {
		p("# TYPE %s counter\n%s %d\n", name, name, snap.Counters[name])
	}
	names = sortedKeys(snap.Gauges)
	for _, name := range names {
		p("# TYPE %s gauge\n%s %d\n", name, name, snap.Gauges[name])
	}
	for _, h := range snap.Histograms {
		p("# TYPE %s histogram\n", h.Name)
		cum := int64(0)
		for i, b := range h.Bounds {
			cum += h.Buckets[i]
			p("%s_bucket{le=%q} %d\n", h.Name, formatFloat(b), cum)
		}
		cum += h.Buckets[len(h.Buckets)-1]
		p("%s_bucket{le=\"+Inf\"} %d\n", h.Name, cum)
		p("%s_sum %s\n", h.Name, formatFloat(h.Sum))
		p("%s_count %d\n", h.Name, h.Count)
	}
	return err
}

func sortedKeys(m map[string]int64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
