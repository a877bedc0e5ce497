package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// wellFormed asserts the span-tree invariants the tracer promises: every
// non-root span's parent exists and started no later than the child; every
// ended span has End >= Start; IDs are unique.
func wellFormed(t *testing.T, spans []SpanRecord) {
	t.Helper()
	byID := make(map[uint64]SpanRecord, len(spans))
	for _, sp := range spans {
		if _, dup := byID[sp.ID]; dup {
			t.Fatalf("duplicate span ID %d", sp.ID)
		}
		byID[sp.ID] = sp
	}
	for _, sp := range spans {
		if !sp.End.IsZero() && sp.End.Before(sp.Start) {
			t.Fatalf("span %d %q ends before it starts", sp.ID, sp.Name)
		}
		if sp.Parent == 0 {
			if sp.ID != 1 {
				t.Fatalf("span %d %q is an orphan (parent 0, not root)", sp.ID, sp.Name)
			}
			continue
		}
		parent, ok := byID[sp.Parent]
		if !ok {
			t.Fatalf("span %d %q has unknown parent %d", sp.ID, sp.Name, sp.Parent)
		}
		if parent.Start.After(sp.Start) {
			t.Fatalf("span %d %q starts before its parent %d", sp.ID, sp.Name, sp.Parent)
		}
	}
}

func TestSpanTreeBasic(t *testing.T) {
	tr := NewTrace(TraceConfig{Name: "root"})
	root := tr.Root()
	if !root.Live() || root.SpanID() != 1 {
		t.Fatalf("root span: live=%v id=%d", root.Live(), root.SpanID())
	}
	a := root.Child("a")
	b := a.Child("b")
	b.SetInt("cost", 42)
	b.SetStr("phase", "icd")
	b.End()
	a.End()
	tr.Finish()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	wellFormed(t, spans)
	var bRec *SpanRecord
	for i := range spans {
		if spans[i].Name == "b" {
			bRec = &spans[i]
		}
	}
	if bRec == nil || len(bRec.Attrs) != 2 || bRec.Attrs[0].Val != int64(42) {
		t.Fatalf("span b attrs wrong: %+v", bRec)
	}
	if bRec.Parent != 2 {
		t.Fatalf("span b parent = %d, want 2", bRec.Parent)
	}
}

func TestStartSpanContextPropagation(t *testing.T) {
	tr := NewTrace(TraceConfig{Name: "req"})
	ctx := ContextWithSpan(context.Background(), tr.Root())
	child, ctx2 := StartSpan(ctx, "stage")
	if !child.Live() {
		t.Fatal("child not live with trace in context")
	}
	grand, _ := StartSpan(ctx2, "substage")
	grand.End()
	child.End()
	tr.Finish()
	spans := tr.Snapshot()
	wellFormed(t, spans)
	if spans[2].Parent != spans[1].ID {
		t.Fatalf("substage parent = %d, want %d", spans[2].Parent, spans[1].ID)
	}
}

func TestDisabledPathZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		sp, c := StartSpan(ctx, "nothing")
		sp.SetInt("k", 1)
		child := sp.Child("child")
		child.End()
		sp.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer path allocates %.1f per op, want 0", allocs)
	}
	var l *Logger
	allocs = testing.AllocsPerRun(100, func() {
		l.Info("never")
		l.Sample("k", 10).Debug("never")
	})
	if allocs != 0 {
		t.Fatalf("nil logger allocates %.1f per op, want 0", allocs)
	}
}

func TestConcurrentSpansWellFormed(t *testing.T) {
	tr := NewTrace(TraceConfig{Name: "root"})
	root := tr.Root()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := root.Child(fmt.Sprintf("worker.%d", w))
			for j := 0; j < 50; j++ {
				job := worker.Child("job")
				job.SetInt("n", int64(j))
				job.End()
			}
			worker.End()
		}(w)
	}
	wg.Wait()
	tr.Finish()
	spans := tr.Snapshot()
	if len(spans) != 1+8+8*50 {
		t.Fatalf("got %d spans, want %d", len(spans), 1+8+8*50)
	}
	wellFormed(t, spans)
	for _, sp := range spans {
		if sp.End.IsZero() {
			t.Fatalf("span %d %q left open", sp.ID, sp.Name)
		}
	}
}

func TestSpanLimitDrops(t *testing.T) {
	tr := NewTrace(TraceConfig{Name: "root", Limit: 4})
	root := tr.Root()
	for i := 0; i < 10; i++ {
		sp := root.Child("extra")
		sp.End() // no-op past the limit
	}
	if got := len(tr.Snapshot()); got != 4 {
		t.Fatalf("retained %d spans, want 4", got)
	}
	if tr.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", tr.Dropped())
	}
	// StartSpan surfaces the drop as a zero span, not a broken handle.
	ctx := ContextWithSpan(context.Background(), root)
	sp, ctx2 := StartSpan(ctx, "over")
	if sp.Live() {
		t.Fatal("span past limit should be dead")
	}
	if ctx2 != ctx {
		t.Fatal("context should be unchanged when span is dropped")
	}
}

func TestChromeExport(t *testing.T) {
	tr := NewTrace(TraceConfig{Name: "root"})
	root := tr.Root()
	a := root.Child("icd.scc")
	a.SetInt("sccs", 3)
	time.Sleep(time.Millisecond)
	a.End()
	// Two deliberately concurrent children to force a second lane.
	b := root.Child("lane.a")
	c := root.Child("lane.b")
	time.Sleep(time.Millisecond)
	b.End()
	c.End()
	leak := root.Child("unended") // panic-path span left open
	_ = leak
	tr.Finish()

	raw := tr.Chrome()
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, raw)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	var xCount int
	lanes := map[string]int{}
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "X":
			xCount++
		default:
			t.Fatalf("unexpected phase %q (only complete X and metadata M events)", ev.Ph)
		}
		if ev.TS < 0 || ev.Dur <= 0 {
			t.Fatalf("event %q has ts=%v dur=%v", ev.Name, ev.TS, ev.Dur)
		}
		if _, ok := ev.Args["trace_id"]; !ok {
			t.Fatalf("event %q missing trace_id arg", ev.Name)
		}
		lanes[ev.Name] = ev.TID
	}
	if xCount != 5 {
		t.Fatalf("got %d X events, want 5", xCount)
	}
	if lanes["lane.a"] == lanes["lane.b"] {
		t.Fatal("concurrent spans share a lane; expected distinct tids")
	}
	// The unended span is clamped and flagged.
	for _, ev := range file.TraceEvents {
		if ev.Name == "unended" {
			if fl, _ := ev.Args["unfinished"].(bool); !fl {
				t.Fatal("unended span not flagged unfinished")
			}
		}
	}
}

func TestFlightRecorderWraparound(t *testing.T) {
	r := NewFlightRecorder(8)
	for i := 0; i < 20; i++ {
		r.Add(Event{Kind: EventLog, Name: "info", Msg: fmt.Sprintf("msg-%d", i)})
	}
	snap := r.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("retained %d events, want 8", len(snap))
	}
	if r.Total() != 20 {
		t.Fatalf("total = %d, want 20", r.Total())
	}
	// Oldest-first: the ring keeps the last 8 (12..19).
	for i, e := range snap {
		want := fmt.Sprintf("msg-%d", 12+i)
		if e.Msg != want {
			t.Fatalf("event %d = %q, want %q", i, e.Msg, want)
		}
	}
	var parsed flightSnapshot
	if err := json.Unmarshal(r.JSON(), &parsed); err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	if parsed.Total != 20 || parsed.Retained != 8 {
		t.Fatalf("snapshot header: %+v", parsed)
	}
}

func TestFlightRecorderPartialFill(t *testing.T) {
	r := NewFlightRecorder(16)
	r.Add(Event{Kind: EventPanic, Name: "digest", Msg: "boom"})
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != EventPanic {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].Time.IsZero() {
		t.Fatal("event time not stamped")
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewFlightRecorder(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Add(Event{Kind: EventLog, Name: "info"})
			}
		}()
	}
	wg.Wait()
	if r.Total() != 800 {
		t.Fatalf("total = %d, want 800", r.Total())
	}
	if len(r.Snapshot()) != 32 {
		t.Fatalf("retained %d, want 32", len(r.Snapshot()))
	}
}

func TestSpansFeedFlightRecorder(t *testing.T) {
	rec := NewFlightRecorder(16)
	tr := NewTrace(TraceConfig{Name: "req", Recorder: rec})
	sp := tr.Root().Child("stage")
	sp.End()
	tr.Finish()
	snap := rec.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("got %d events, want 2 (stage end + root end)", len(snap))
	}
	if snap[0].Kind != EventSpan || snap[0].Name != "stage" || snap[0].TraceID != tr.ID() {
		t.Fatalf("first event = %+v", snap[0])
	}
}

func TestLoggerCorrelationAndSampling(t *testing.T) {
	var buf bytes.Buffer
	rec := NewFlightRecorder(16)
	l := NewLogger(&buf, slog.LevelDebug, rec)

	tr := NewTrace(TraceConfig{Name: "req"})
	ctx := ContextWithSpan(context.Background(), tr.Root())
	l.InfoCtx(ctx, "served", "status", 200)
	line := buf.String()
	if !strings.Contains(line, "trace_id="+tr.ID()) || !strings.Contains(line, "span_id=1") {
		t.Fatalf("log line missing trace correlation: %q", line)
	}
	if !strings.Contains(line, "status=200") {
		t.Fatalf("log line missing attr: %q", line)
	}

	buf.Reset()
	for i := 0; i < 10; i++ {
		l.Sample("noisy", 5).Info("sampled")
	}
	if got := strings.Count(buf.String(), "sampled"); got != 2 {
		t.Fatalf("sampling admitted %d of 10 (every 5), want 2", got)
	}

	// Levels below the handler threshold are suppressed and not recorded.
	quiet := NewLogger(&buf, slog.LevelWarn, rec)
	before := rec.Total()
	quiet.Debug("hidden")
	if rec.Total() != before {
		t.Fatal("suppressed line reached the flight recorder")
	}
}

func TestLoggerNilSafety(t *testing.T) {
	var l *Logger
	l.Info("nothing")
	l.ErrorCtx(context.Background(), "nothing")
	if l.With("k", "v") != nil {
		t.Fatal("With on nil logger should stay nil")
	}
	if l.Sample("k", 3) != nil {
		t.Fatal("Sample on nil logger should stay nil")
	}
	if l.Enabled(slog.LevelError) {
		t.Fatal("nil logger reports enabled")
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo, "Warn": slog.LevelWarn,
		"warning": slog.LevelWarn, "error": slog.LevelError, "": slog.LevelInfo,
		"bogus": slog.LevelInfo,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Fatalf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestNilTraceSafety(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Root().Live() || tr.Snapshot() != nil || tr.Finish() != nil {
		t.Fatal("nil trace not inert")
	}
	if !bytes.Contains(tr.Chrome(), []byte("traceEvents")) {
		t.Fatal("nil trace chrome export malformed")
	}
	var rec *FlightRecorder
	rec.Add(Event{})
	if rec.Snapshot() != nil || rec.Total() != 0 {
		t.Fatal("nil recorder not inert")
	}
	if !bytes.Contains(rec.JSON(), []byte("total_events")) {
		t.Fatal("nil recorder JSON malformed")
	}
}
