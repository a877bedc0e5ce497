package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
)

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra final entry
	// for the implicit overflow (+Inf) bucket.
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
}

// SpanSnapshot is one phase's accumulated span totals.
type SpanSnapshot struct {
	Count uint64 `json:"count"`
	// CostUnits is nil when no occurrence of the phase ran under a meter:
	// an unmetered phase reports no cost rather than a zero.
	CostUnits *int64 `json:"cost_units,omitempty"`
	// WallNanos is the only nondeterministic field in a snapshot; it is
	// stripped by Deterministic().
	WallNanos int64 `json:"wall_ns,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, shaped for JSON: every
// map marshals with sorted keys (encoding/json's map behavior), so equal
// registries produce byte-identical encodings.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans      map[string]SpanSnapshot      `json:"spans,omitempty"`
}

// Snapshot copies the registry's current state. Safe on a nil registry
// (returns an empty snapshot).
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
		Spans:      map[string]SpanSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.histograms {
		s.Histograms[n] = HistogramSnapshot{
			Bounds: h.Bounds(),
			Counts: h.BucketCounts(),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
	}
	for n, sp := range r.spans {
		snap := SpanSnapshot{Count: sp.count.Load(), WallNanos: sp.wallNanos.Load()}
		if sp.metered.Load() {
			units := sp.costUnits.Load()
			snap.CostUnits = &units
		}
		s.Spans[n] = snap
	}
	return s
}

// Deterministic returns a copy with every nondeterministic element removed:
// span wall times are zeroed and live-only metrics (the liveOnlyPrefix
// namespace: result-store cache occupancy and hit rates) are dropped
// entirely. Two identical replays of the same trace yield byte-identical
// JSON encodings of the result, regardless of cache history.
func (s *Snapshot) Deterministic() *Snapshot {
	out := &Snapshot{
		Counters:   dropLive(s.Counters),
		Gauges:     dropLive(s.Gauges),
		Histograms: dropLive(s.Histograms),
		Spans:      make(map[string]SpanSnapshot, len(s.Spans)),
	}
	for n, sp := range s.Spans {
		if isLiveOnly(n) {
			continue
		}
		sp.WallNanos = 0
		out.Spans[n] = sp
	}
	return out
}

// isLiveOnly reports whether a metric name falls in the namespace that
// Deterministic() strips.
func isLiveOnly(name string) bool { return strings.HasPrefix(name, liveOnlyPrefix) }

// dropLive filters the live-only namespace out of one metric map,
// returning the input untouched (no copy) when nothing matches.
func dropLive[V any](m map[string]V) map[string]V {
	live := 0
	for n := range m {
		if isLiveOnly(n) {
			live++
		}
	}
	if live == 0 {
		return m
	}
	out := make(map[string]V, len(m)-live)
	for n, v := range m {
		if !isLiveOnly(n) {
			out[n] = v
		}
	}
	return out
}

// JSON renders the snapshot as stable, indented JSON (sorted keys, trailing
// newline).
func (s *Snapshot) JSON() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		// A Snapshot contains only maps of plain values; encoding cannot
		// fail short of a corrupted runtime.
		panic("telemetry: snapshot encode: " + err.Error())
	}
	return buf.Bytes()
}

// Counter returns the named counter's value (0 when absent).
func (s *Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns the named gauge's value (0 when absent).
func (s *Snapshot) Gauge(name string) float64 { return s.Gauges[name] }
