// Package obs is the request-scoped observability layer: a causal span
// tracer, a structured logger, and a flight recorder for post-mortem
// debugging. Where internal/telemetry answers "how much did this process
// do in aggregate", obs answers "where did THIS request's time go" and
// "what was happening just before it went wrong".
//
// Everything follows the telemetry package's nil-safety contract: the
// zero Span, the nil *Trace, the nil *Logger, and the nil *FlightRecorder
// are all complete no-ops, so library code can be instrumented
// unconditionally and stays silent (and allocation-free) unless a caller
// opted in.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// DefaultSpanLimit bounds how many spans one trace retains. A golden-corpus
// replay produces tens of spans; the limit only matters for adversarial
// inputs (a trace with millions of transactions would otherwise grow a
// span per SCC detection). Past the limit new spans are counted as
// dropped and become no-ops.
const DefaultSpanLimit = 8192

// Attr is one span attribute: a cost-model unit count, an event count, or
// a small identifying string. Val is either an int64 or a string.
type Attr struct {
	Key string
	Val any
}

// SpanRecord is one finished (or still-open) span as retained by the
// trace. IDs are sequential within a trace; the root span is ID 1 and
// Parent 0 means "no parent".
type SpanRecord struct {
	ID     uint64
	Parent uint64
	Name   string
	Start  time.Time
	End    time.Time // zero while the span is open
	Attrs  []Attr
}

// Trace is one request's (or one CLI invocation's) span tree. Spans are
// registered at start and finalized at End under a single mutex; the
// critical sections are an append and two field stores, so contention is
// negligible next to the work being traced.
type Trace struct {
	id    string
	start time.Time

	mu      sync.Mutex
	spans   []SpanRecord
	byID    map[uint64]int // span ID -> index in spans
	nextID  uint64
	limit   int
	dropped uint64
	rec     *FlightRecorder
}

// TraceConfig configures NewTrace. The zero value is usable.
type TraceConfig struct {
	// Name names the root span (e.g. "dcserve.check", "dcheck.replay").
	Name string
	// Limit caps retained spans; 0 means DefaultSpanLimit.
	Limit int
	// Recorder, if set, receives a flight-recorder event for every span
	// that ends in this trace.
	Recorder *FlightRecorder
}

// NewTrace starts a new trace with a fresh random ID and an already-open
// root span (retrieve it with Root).
func NewTrace(cfg TraceConfig) *Trace {
	limit := cfg.Limit
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	name := cfg.Name
	if name == "" {
		name = "trace"
	}
	tr := &Trace{
		id:    newTraceID(),
		start: time.Now(),
		byID:  make(map[uint64]int),
		limit: limit,
		rec:   cfg.Recorder,
	}
	tr.startSpan(name, 0)
	return tr
}

// newTraceID returns 16 hex characters of randomness. Trace IDs only need
// to be unique within one process's retention window.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the platforms we target; fall back to
		// a fixed marker rather than panicking in an observability path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ID returns the trace's hex ID. Nil-safe: returns "" on a nil trace.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span. Nil-safe: returns the zero Span.
func (t *Trace) Root() Span {
	if t == nil {
		return Span{}
	}
	return Span{tr: t, id: 1}
}

// startSpan registers a new open span and returns its handle.
func (t *Trace) startSpan(name string, parent uint64) Span {
	now := time.Now()
	t.mu.Lock()
	if len(t.spans) >= t.limit {
		t.dropped++
		t.mu.Unlock()
		return Span{}
	}
	t.nextID++
	id := t.nextID
	t.byID[id] = len(t.spans)
	t.spans = append(t.spans, SpanRecord{ID: id, Parent: parent, Name: name, Start: now})
	t.mu.Unlock()
	return Span{tr: t, id: id}
}

// Dropped reports how many spans were discarded because the trace hit its
// span limit.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot returns a copy of every retained span, in start order.
// Open spans have a zero End.
func (t *Trace) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	for i := range out {
		out[i].Attrs = append([]Attr(nil), out[i].Attrs...)
	}
	return out
}

// Finish ends the root span (if still open) and returns the trace for
// chaining. Child spans left open by a panic stay open; the Chrome
// exporter clamps them to the export instant.
func (t *Trace) Finish() *Trace {
	if t == nil {
		return nil
	}
	t.Root().End()
	return t
}

// Span is a handle on one node of a trace's span tree. It is a small
// value; copy it freely. The zero Span is a no-op: Child returns another
// zero Span, End and the attribute setters do nothing, and none of them
// allocate — this is what makes tracing free when disabled.
type Span struct {
	tr *Trace
	id uint64
}

// Live reports whether the span is actually recording. Hot paths can use
// it to skip attribute construction entirely.
func (s Span) Live() bool { return s.tr != nil }

// TraceID returns the owning trace's ID, or "" for the zero span.
func (s Span) TraceID() string { return s.tr.ID() }

// SpanID returns the span's ID within its trace, 0 for the zero span.
func (s Span) SpanID() uint64 { return s.id }

// Child starts a new span under this one. On the zero Span it returns
// the zero Span without allocating.
func (s Span) Child(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	return s.tr.startSpan(name, s.id)
}

// End closes the span, stamping its end time. Ending twice keeps the
// first end. A flight-recorder event is emitted if the trace has one.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	now := time.Now()
	t := s.tr
	t.mu.Lock()
	idx, ok := t.byID[s.id]
	if !ok || !t.spans[idx].End.IsZero() {
		t.mu.Unlock()
		return
	}
	t.spans[idx].End = now
	name := t.spans[idx].Name
	dur := now.Sub(t.spans[idx].Start)
	rec := t.rec
	t.mu.Unlock()
	rec.Add(Event{Kind: EventSpan, Name: name, TraceID: t.id, SpanID: s.id, DurNanos: int64(dur)})
}

// SetInt attaches one integer attribute. Non-variadic so disabled-path
// callers pay no slice allocation.
func (s Span) SetInt(key string, v int64) {
	if s.tr == nil {
		return
	}
	s.set(Attr{Key: key, Val: v})
}

// SetStr attaches one string attribute.
func (s Span) SetStr(key, v string) {
	if s.tr == nil {
		return
	}
	s.set(Attr{Key: key, Val: v})
}

func (s Span) set(a Attr) {
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, ok := t.byID[s.id]
	if !ok {
		return
	}
	t.spans[idx].Attrs = append(t.spans[idx].Attrs, a)
}
