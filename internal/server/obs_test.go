package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"doublechecker/internal/obs"
	"doublechecker/internal/store"
	"doublechecker/internal/telemetry"
)

// wellFormedSpans asserts the span-tree invariants every request trace must
// satisfy: unique span IDs, every non-root parent present and started no
// later than its child, every ended span with End >= Start, and — because a
// served response means the request finished — no span left open.
func wellFormedSpans(t *testing.T, traceID string, spans []obs.SpanRecord) {
	t.Helper()
	if len(spans) == 0 {
		t.Errorf("trace %s: no spans", traceID)
		return
	}
	byID := make(map[uint64]obs.SpanRecord, len(spans))
	for _, sp := range spans {
		if _, dup := byID[sp.ID]; dup {
			t.Errorf("trace %s: duplicate span ID %d", traceID, sp.ID)
		}
		byID[sp.ID] = sp
	}
	for _, sp := range spans {
		if sp.Parent != 0 {
			parent, ok := byID[sp.Parent]
			if !ok {
				t.Errorf("trace %s: span %d %q has unknown parent %d", traceID, sp.ID, sp.Name, sp.Parent)
				continue
			}
			if parent.Start.After(sp.Start) {
				t.Errorf("trace %s: span %d %q starts before its parent %q", traceID, sp.ID, sp.Name, parent.Name)
			}
		}
		if sp.End.IsZero() {
			t.Errorf("trace %s: span %d %q left open", traceID, sp.ID, sp.Name)
		} else if sp.End.Before(sp.Start) {
			t.Errorf("trace %s: span %d %q ends before it starts", traceID, sp.ID, sp.Name)
		}
	}
}

// spanNames counts the spans of a snapshot by name.
func spanNames(spans []obs.SpanRecord) map[string]int {
	names := make(map[string]int)
	for _, sp := range spans {
		names[sp.Name]++
	}
	return names
}

// TestConcurrentCheckSpanTreesWellFormed is the observability contract under
// contention (run it with -race): many concurrent identical uploads — one
// singleflight leader, the rest coalesced waiters — each get their own
// trace, every trace is a well-formed closed span tree, and the spans tell
// the true story: the leader's trace spans admission → supervise → core run
// → PCD replay → store put, while every follower either coalesced or hit
// the cache.
func TestConcurrentCheckSpanTreesWellFormed(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("../../testdata/traces", "sccring.dct"))
	if err != nil {
		t.Fatal(err)
	}
	cache, err := store.Open(store.Config{MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Cache: cache, MaxConcurrent: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	var wg sync.WaitGroup
	traceIDs := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/check", "application/octet-stream", bytes.NewReader(raw))
			if err != nil {
				t.Errorf("upload %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("upload %d: status %d", i, resp.StatusCode)
				return
			}
			traceIDs[i] = resp.Header.Get(TraceIDHeader)
		}(i)
	}
	wg.Wait()

	leaders := 0
	for i, id := range traceIDs {
		if id == "" {
			t.Fatalf("upload %d: no %s header", i, TraceIDHeader)
		}
		tr := s.traces.get(id)
		if tr == nil {
			t.Fatalf("upload %d: trace %s not retained", i, id)
		}
		spans := tr.Snapshot()
		wellFormedSpans(t, id, spans)
		if tr.Dropped() != 0 {
			t.Errorf("trace %s dropped %d spans", id, tr.Dropped())
		}
		names := spanNames(spans)
		if names[telemetry.SpanStoreGet] == 0 {
			t.Errorf("trace %s: no %s span", id, telemetry.SpanStoreGet)
		}
		if names[telemetry.SpanLeadCheck] > 0 {
			leaders++
			// The leader's trace must span the whole pipeline, down to the
			// PCD replays and the result-store insert.
			for _, want := range []string{
				telemetry.SpanQueueWait, telemetry.SpanTrial, telemetry.SpanTrialAttempt,
				telemetry.SpanCoreRun, telemetry.SpanExecute, telemetry.SpanICDSCC,
				telemetry.SpanPCDReplay, telemetry.SpanStorePut,
			} {
				if names[want] == 0 {
					t.Errorf("leader trace %s: no %s span (have %v)", id, want, names)
				}
			}
		} else if names[telemetry.SpanCoalesceWait] == 0 && names[telemetry.SpanStoreGet] > 0 {
			// Not the leader: either it blocked on the leader's flight or it
			// arrived late enough for a plain cache hit.
			hit := false
			for _, sp := range spans {
				for _, a := range sp.Attrs {
					if sp.Name == telemetry.SpanStoreGet && a.Key == "state" && a.Val == "hit" {
						hit = true
					}
				}
			}
			if !hit {
				t.Errorf("follower trace %s neither coalesced nor hit (names %v)", id, names)
			}
		}
	}
	if leaders != 1 {
		t.Errorf("%d leader traces, want exactly 1", leaders)
	}
}

// TestDebugObservabilityEndpoints exercises the debug surface end to end:
// a checked request's trace is fetchable as valid Chrome trace-event JSON,
// unknown IDs 404 with the taxonomy kind, the retention index lists the
// trace, the flight recorder serves its ring, and the bundle has all four
// sections.
func TestDebugObservabilityEndpoints(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("../../testdata/traces", "elevator.dct"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/check", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check status %d", resp.StatusCode)
	}
	id := resp.Header.Get(TraceIDHeader)
	if id == "" {
		t.Fatalf("no %s header", TraceIDHeader)
	}

	fetch := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	// The trace itself: valid Chrome trace-event JSON naming the pipeline.
	code, body := fetch("/debug/traces/" + id)
	if code != http.StatusOK {
		t.Fatalf("trace fetch status %d: %s", code, body)
	}
	var chrome struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	seen := make(map[string]bool)
	for _, ev := range chrome.TraceEvents {
		seen[ev.Name] = true
	}
	for _, want := range []string{"check.trace", telemetry.SpanCoreRun, telemetry.SpanTrial} {
		if !seen[want] {
			t.Errorf("exported trace missing %q event", want)
		}
	}

	// Unknown IDs are a taxonomy 404, and the index lists the real one.
	if code, _ := fetch("/debug/traces/no-such-trace"); code != http.StatusNotFound {
		t.Errorf("unknown trace fetch status %d, want 404", code)
	}
	code, body = fetch("/debug/traces")
	if code != http.StatusOK || !strings.Contains(string(body), id) {
		t.Errorf("trace index (status %d) does not list %s: %s", code, id, body)
	}

	// The flight recorder holds the request's span history.
	code, body = fetch("/debug/flightrecorder")
	if code != http.StatusOK {
		t.Fatalf("flightrecorder status %d", code)
	}
	var flight struct {
		Total  uint64      `json:"total_events"`
		Events []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(body, &flight); err != nil {
		t.Fatalf("flightrecorder is not valid JSON: %v", err)
	}
	if flight.Total == 0 || len(flight.Events) == 0 {
		t.Errorf("flight recorder empty after a checked request: %s", body)
	}

	// The bundle carries all four sections.
	code, body = fetch("/debug/bundle")
	if code != http.StatusOK {
		t.Fatalf("bundle status %d", code)
	}
	var bundle map[string]json.RawMessage
	if err := json.Unmarshal(body, &bundle); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	for _, key := range []string{"telemetry", "flight_recorder", "retained_traces", "goroutines"} {
		if _, ok := bundle[key]; !ok {
			t.Errorf("bundle missing %q section", key)
		}
	}
}

// TestTraceRetentionBounded: the ring keeps only the configured number of
// traces, evicting oldest-first, so an always-on service cannot grow
// without bound.
func TestTraceRetentionBounded(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("../../testdata/traces", "elevator.dct"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{TraceRetention: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/check", "application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ids = append(ids, resp.Header.Get(TraceIDHeader))
	}
	retained := s.traces.ids()
	if len(retained) != 2 {
		t.Fatalf("retained %d traces, want 2: %v", len(retained), retained)
	}
	if s.traces.get(ids[0]) != nil {
		t.Error("oldest trace survived eviction")
	}
	for _, id := range ids[1:] {
		if s.traces.get(id) == nil {
			t.Errorf("recent trace %s evicted", id)
		}
	}
}

// TestRequestLogLine: the middleware emits one structured line per check
// request carrying the status, the cache disposition, and the trace ID —
// and probe endpoints stay out of the log.
func TestRequestLogLine(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("../../testdata/traces", "elevator.dct"))
	if err != nil {
		t.Fatal(err)
	}
	var buf syncBuffer
	cache, err := store.Open(store.Config{MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Logger: obs.NewLogger(&buf, obs.ParseLevel("info"), nil), Cache: cache})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func() *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/check", "application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	first := post()
	second := post()
	if resp, err := http.Get(ts.URL + "/healthz"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	log := buf.String()
	lines := strings.Split(strings.TrimSpace(log), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 request log lines, got %d:\n%s", len(lines), log)
	}
	for i, want := range []struct{ resp *http.Response }{{first}, {second}} {
		for _, frag := range []string{
			"msg=request", "method=POST", "path=/check", "status=200",
			"cache=" + want.resp.Header.Get(CacheHeader),
			"trace_id=" + want.resp.Header.Get(TraceIDHeader),
		} {
			if !strings.Contains(lines[i], frag) {
				t.Errorf("request log line %d missing %q:\n%s", i, frag, lines[i])
			}
		}
	}
	if !strings.Contains(lines[0], "cache=miss") || !strings.Contains(lines[1], "cache=hit") {
		t.Errorf("cache dispositions not logged miss-then-hit:\n%s", log)
	}
	if strings.Contains(log, "healthz") {
		t.Errorf("probe endpoint leaked into the request log:\n%s", log)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for log capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
