package telemetry

import (
	"sync/atomic"
	"time"

	"doublechecker/internal/cost"
	"doublechecker/internal/obs"
)

// spanStat accumulates one named phase's totals.
type spanStat struct {
	count     atomic.Uint64
	costUnits atomic.Int64
	wallNanos atomic.Int64
	// metered is set once any occurrence ran under a meter; until then the
	// phase reports no cost units at all rather than a misleading zero.
	metered atomic.Bool
}

// Span measures one occurrence of a named pipeline phase: wall time between
// StartSpan and End, plus the cost-model units the attached meter charged in
// between. It is the one phase span: End feeds the registry aggregate (spans
// of the same name accumulate a count, total cost units and total wall
// nanoseconds) and, when the span was opened under a live trace parent, ends
// a child trace span carrying the same cost_units — which the trace in turn
// forwards to its flight recorder.
//
// A Span is a value; End must be called exactly once. The zero Span — and
// any span from a nil registry under the zero parent — is an
// allocation-free no-op.
type Span struct {
	stat      *spanStat
	trace     obs.Span
	meter     *cost.Meter
	start     time.Time
	startCost cost.Units
}

// StartSpan begins one occurrence of the named phase as a child of parent.
// meter may be nil, in which case the span records wall time and count only
// and reports no cost units. A nil registry still opens the trace child, and
// the zero parent still feeds the registry.
func (r *Registry) StartSpan(parent obs.Span, name string, meter *cost.Meter) Span {
	s := Span{stat: r.spanStat(name), trace: parent.Child(name)}
	if s.stat == nil && !s.trace.Live() {
		return Span{}
	}
	s.meter = meter
	s.start = time.Now()
	if meter != nil {
		s.startCost = meter.Total()
	}
	return s
}

// Trace returns the span's trace handle, the parent for phases nested inside
// this one. It is the zero obs.Span when the span is not traced.
func (s Span) Trace() obs.Span { return s.trace }

// SetInt attaches an integer attribute to the trace span (a no-op when the
// span is not traced; the registry aggregate has no attributes).
func (s Span) SetInt(key string, v int64) { s.trace.SetInt(key, v) }

// SetStr attaches a string attribute to the trace span.
func (s Span) SetStr(key, v string) { s.trace.SetStr(key, v) }

// End finishes the span, charging its wall time and cost delta to the phase
// and ending the trace span.
func (s Span) End() {
	if s.stat == nil && !s.trace.Live() {
		return
	}
	var units int64
	if s.meter != nil {
		units = int64(s.meter.Total() - s.startCost)
	}
	if s.stat != nil {
		s.stat.count.Add(1)
		s.stat.wallNanos.Add(int64(time.Since(s.start)))
		if s.meter != nil {
			s.stat.costUnits.Add(units)
			s.stat.metered.Store(true)
		}
	}
	if s.trace.Live() {
		if s.meter != nil {
			s.trace.SetInt("cost_units", units)
		}
		s.trace.End()
	}
}
