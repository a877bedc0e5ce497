// Package telemetry is the unified observability layer of this
// reproduction: a lock-cheap registry of typed counters, gauges, and
// fixed-bucket histograms, plus the phase span that charges wall time and
// cost-model units to named pipeline stages (execute → SCC detection → PCD
// replay → blame, plus graph collection).
//
// Registry.StartSpan is the only way a checker phase is measured. One span
// takes one start time and one cost snapshot and feeds three sinks: the
// registry's per-phase aggregate, a child span in the request's trace tree
// (internal/obs) when the caller passes a live parent, and — through that
// trace — the flight recorder. The sinks therefore agree by construction on
// how often each phase ran and what it cost. Request plumbing that has no
// aggregate (core.run, server.*, store.*, supervise.*) uses obs.StartSpan
// directly.
//
// The paper's whole argument is quantitative — the Octet transition mix
// (Table 1 / Figure 4), IDG size, SCC count and size distribution (§5), and
// the fraction of transactions PCD must replay. Each checker counts those
// quantities in its own Stats; internal/core adds a run's Stats to the
// registry when the run completes, so a run that aborts adds no counter.
// The registry exports them three ways:
//
//   - a Prometheus-text / expvar / pprof HTTP endpoint (http.go), for live
//     monitoring of long checks (`dcheck -metrics-addr`);
//   - a deterministic JSON snapshot embedded in results and reports
//     (`dcheck -stats-json`, `dctrace replay -stats-json`);
//   - machine-readable benchmark dumps (`dcbench -experiment telemetry`).
//
// Determinism contract: every metric except span wall time is derived from
// the (deterministic) event stream and cost model, so two replays of the
// same trace produce byte-identical Snapshot.Deterministic() JSON. Wall
// nanoseconds are the one nondeterministic quantity; Deterministic() strips
// them.
//
// Concurrency: metric handles update via sync/atomic with no locks; the
// registry itself locks only on metric creation. A nil *Registry is valid
// everywhere and returns working (but unregistered) metric handles.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable float64 metric (fractions, sizes, deltas).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution of uint64 observations. Bucket i
// counts observations v with v <= Bounds[i] (and v > Bounds[i-1]); one
// implicit overflow bucket counts everything above the last bound.
type Histogram struct {
	bounds  []uint64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sum     atomic.Uint64
}

func newHistogram(bounds []uint64) *Histogram {
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Bounds returns the bucket upper bounds (the overflow bucket is implicit).
func (h *Histogram) Bounds() []uint64 {
	out := make([]uint64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// BucketCounts returns per-bucket counts; the final entry is the overflow
// bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Registry holds one run's (or one process's) metrics. The zero value is
// not usable; construct with NewRegistry. All methods are safe for
// concurrent use, and all methods are safe on a nil receiver (they return
// working handles that are simply not exported anywhere).
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	spans      map[string]*spanStat
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		spans:      make(map[string]*spanStat),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
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
	if r == nil {
		return &Gauge{}
	}
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
// upper bounds on first use (later calls reuse the existing buckets and
// ignore bounds).
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

func (r *Registry) spanStat(name string) *spanStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.spans[name]
	if !ok {
		s = &spanStat{}
		r.spans[name] = s
	}
	return s
}

// sortedNames returns m's keys sorted; used by every exporter so output
// order is stable.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
