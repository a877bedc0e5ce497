// Server-side observability: the per-request trace ring, the request-log
// middleware, and the debug endpoints that expose traces, the flight
// recorder, and the one-stop diagnostic bundle.
//
// Every check request gets its own obs.Trace; the root span is threaded
// through the request context so the whole pipeline — admission wait,
// singleflight, supervise attempts, core run, checker phases, PCD replay,
// store traffic — nests under it. The trace ID rides back on
// the X-DC-Trace-Id response header, and the finished trace stays
// fetchable at /debug/traces/<id> (Chrome trace-event JSON, loadable in
// Perfetto) until the bounded retention ring evicts it.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"doublechecker/internal/obs"
)

// TraceIDHeader carries the request's trace ID on every traced response —
// success or failure — so a client can always fetch the timeline behind
// the answer it got.
const TraceIDHeader = "X-DC-Trace-Id"

// DefaultTraceRetention is how many finished request traces the server
// keeps fetchable at /debug/traces/<id> before evicting the oldest.
const DefaultTraceRetention = 128

// traceRing retains the most recent request traces by ID, bounded so an
// always-on service cannot grow without limit.
type traceRing struct {
	mu    sync.Mutex
	byID  map[string]*obs.Trace
	order []string // insertion order; front is oldest
	cap   int
}

func newTraceRing(capacity int) *traceRing {
	if capacity <= 0 {
		capacity = DefaultTraceRetention
	}
	return &traceRing{byID: make(map[string]*obs.Trace), cap: capacity}
}

func (tr *traceRing) add(t *obs.Trace) {
	if t == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if _, dup := tr.byID[t.ID()]; dup {
		return
	}
	tr.byID[t.ID()] = t
	tr.order = append(tr.order, t.ID())
	for len(tr.order) > tr.cap {
		delete(tr.byID, tr.order[0])
		tr.order = tr.order[1:]
	}
}

func (tr *traceRing) get(id string) *obs.Trace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.byID[id]
}

func (tr *traceRing) ids() []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]string, len(tr.order))
	copy(out, tr.order)
	return out
}

// reqScope carries per-request observability state between the middleware
// and the handlers it wraps — the trace (once a handler starts one) and
// the measured admission queue wait for the request log line.
type reqScope struct {
	mu        sync.Mutex
	trace     *obs.Trace
	queueWait time.Duration
}

type scopeKey struct{}

func scopeFrom(ctx context.Context) *reqScope {
	sc, _ := ctx.Value(scopeKey{}).(*reqScope)
	return sc
}

func (sc *reqScope) setTrace(t *obs.Trace) {
	if sc == nil {
		return
	}
	sc.mu.Lock()
	sc.trace = t
	sc.mu.Unlock()
}

func (sc *reqScope) setQueueWait(d time.Duration) {
	if sc == nil {
		return
	}
	sc.mu.Lock()
	sc.queueWait = d
	sc.mu.Unlock()
}

func (sc *reqScope) snapshot() (traceID string, queueWait time.Duration) {
	if sc == nil {
		return "", 0
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.trace != nil {
		traceID = sc.trace.ID()
	}
	return traceID, sc.queueWait
}

// statusWriter records the status code and whether anything was written,
// so the request log can report what actually went out on the wire.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// withObs wraps the route mux with the request-scoped observability
// envelope: a reqScope in the context, a status-recording writer, and —
// for the check endpoints — one structured log line per request carrying
// method, path, status, taxonomy error kind, cache disposition, queue
// wait, latency, and trace ID.
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sc := &reqScope{}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), scopeKey{}, sc)))
		if !strings.HasPrefix(r.URL.Path, "/check") {
			return // probes and debug endpoints stay out of the request log
		}
		traceID, queueWait := sc.snapshot()
		args := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"dur_ms", time.Since(start).Milliseconds(),
			"queue_wait_ms", queueWait.Milliseconds(),
		}
		if kind := sw.Header().Get(ErrorKindHeader); kind != "" {
			args = append(args, "error", kind)
		}
		if cache := sw.Header().Get(CacheHeader); cache != "" {
			args = append(args, "cache", cache)
		}
		if traceID != "" {
			args = append(args, "trace_id", traceID)
		}
		if sw.status >= 500 {
			s.log.Warn("request", args...)
		} else {
			s.log.Info("request", args...)
		}
	})
}

// beginTrace starts the request's trace, retains it for /debug/traces,
// stamps the response header, and rebases the request context onto the
// root span so every downstream StartSpan nests under it. The returned
// request must replace the handler's — its context carries the span.
func (s *Server) beginTrace(w http.ResponseWriter, r *http.Request, name string) (*obs.Trace, *http.Request) {
	tr := obs.NewTrace(obs.TraceConfig{Name: name, Recorder: s.rec})
	s.traces.add(tr)
	w.Header().Set(TraceIDHeader, tr.ID())
	scopeFrom(r.Context()).setTrace(tr)
	ctx := obs.ContextWithSpan(r.Context(), tr.Root())
	return tr, r.WithContext(ctx)
}

// handleDebugTrace serves one retained trace as Chrome trace-event JSON:
// GET /debug/traces/<id>. Load the body in Perfetto (ui.perfetto.dev) or
// chrome://tracing to see the request timeline.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr := s.traces.get(id)
	if tr == nil {
		s.writeErr(w, http.StatusNotFound, "unknown-trace",
			fmt.Sprintf("no retained trace %q (ring keeps the last %d)", id, s.traces.cap), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(tr.Chrome())
}

// handleDebugTraces lists the retained trace IDs, oldest first — the
// index for /debug/traces/<id>.
func (s *Server) handleDebugTraces(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	out, _ := json.Marshal(struct {
		Retained []string `json:"retained"`
	}{Retained: s.traces.ids()})
	w.Write(out)
}

// handleFlightRecorder serves the flight recorder's current ring — the
// last N span/log/panic/quarantine events — as JSON.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.rec.JSON())
}

// handleDebugBundle serves the one-stop diagnostic bundle: the full
// telemetry snapshot, the flight recorder ring, the retained trace IDs,
// and a goroutine dump — everything a bug report needs, in one GET.
func (s *Server) handleDebugBundle(w http.ResponseWriter, _ *http.Request) {
	var goroutines strings.Builder
	if p := pprof.Lookup("goroutine"); p != nil {
		p.WriteTo(&goroutines, 1)
	}
	bundle := struct {
		Telemetry  json.RawMessage `json:"telemetry"`
		Flight     json.RawMessage `json:"flight_recorder"`
		Traces     []string        `json:"retained_traces"`
		Goroutines string          `json:"goroutines"`
	}{
		Telemetry:  json.RawMessage(s.reg.Snapshot().JSON()),
		Flight:     json.RawMessage(s.rec.JSON()),
		Traces:     s.traces.ids(),
		Goroutines: goroutines.String(),
	}
	out, err := json.MarshalIndent(bundle, "", "  ")
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, "check-failed", err.Error(), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}
