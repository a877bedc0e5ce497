package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"time"
)

// chromeEvent is one Chrome trace-event. We emit only complete ("X")
// duration events plus "M" metadata naming the process — the simplest
// shape Perfetto and chrome://tracing both load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // microseconds from trace start
	Dur  float64        `json:"dur,omitempty"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the top-level export shape.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Chrome exports the trace as Chrome trace-event JSON. Spans become "X"
// (complete) events; spans still open — a panic unwound past their End —
// are clamped to the export instant so the file stays loadable. Lanes
// ("tid"s) are assigned greedily: a span lands on the first lane whose
// open intervals all enclose it, so parent/child spans nest on one lane
// and genuinely concurrent spans (coalesced waiters, a batch's traces)
// spread onto their own lanes — the timeline reads like a thread view.
func (t *Trace) Chrome() []byte {
	if t == nil {
		return []byte("{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n")
	}
	spans := t.Snapshot()
	now := time.Now()

	// Sort by start time; ties broken longest-first so an enclosing span
	// claims its lane before its children.
	sort.SliceStable(spans, func(i, j int) bool {
		si, sj := spans[i], spans[j]
		if !si.Start.Equal(sj.Start) {
			return si.Start.Before(sj.Start)
		}
		return endOr(si, now).After(endOr(sj, now))
	})

	// Greedy lane assignment. Each lane keeps a stack of currently-open
	// intervals; a span fits a lane if, after popping intervals that ended
	// before it starts, the lane is empty or its innermost interval
	// encloses the span.
	type lane struct{ open []time.Time } // stack of open-interval end times
	var lanes []*lane
	laneOf := make(map[uint64]int, len(spans))
	for _, sp := range spans {
		end := endOr(sp, now)
		placed := false
		for li, l := range lanes {
			for len(l.open) > 0 && !l.open[len(l.open)-1].After(sp.Start) {
				l.open = l.open[:len(l.open)-1]
			}
			if len(l.open) == 0 || !l.open[len(l.open)-1].Before(end) {
				l.open = append(l.open, end)
				laneOf[sp.ID] = li
				placed = true
				break
			}
		}
		if !placed {
			lanes = append(lanes, &lane{open: []time.Time{end}})
			laneOf[sp.ID] = len(lanes) - 1
		}
	}

	events := make([]chromeEvent, 0, len(spans)+1)
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "doublechecker trace " + t.id},
	})
	for _, sp := range spans {
		args := map[string]any{
			"trace_id": t.id,
			"span_id":  sp.ID,
			"parent":   sp.Parent,
		}
		for _, a := range sp.Attrs {
			args[a.Key] = a.Val
		}
		if sp.End.IsZero() {
			args["unfinished"] = true
		}
		events = append(events, chromeEvent{
			Name: sp.Name,
			Ph:   "X",
			TS:   float64(sp.Start.Sub(t.start)) / float64(time.Microsecond),
			Dur:  durMicros(sp, now),
			PID:  1,
			TID:  laneOf[sp.ID],
			Args: args,
		})
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(chromeFile{TraceEvents: events, DisplayTimeUnit: "ms"}); err != nil {
		panic("obs: chrome encode: " + err.Error())
	}
	return buf.Bytes()
}

func endOr(sp SpanRecord, now time.Time) time.Time {
	if sp.End.IsZero() {
		return now
	}
	return sp.End
}

func durMicros(sp SpanRecord, now time.Time) float64 {
	d := endOr(sp, now).Sub(sp.Start)
	if d < 0 {
		d = 0
	}
	us := float64(d) / float64(time.Microsecond)
	if us == 0 {
		// Zero-duration X events render as invisible slivers; give every
		// span a minimum visible width of a tenth of a microsecond.
		us = 0.1
	}
	return us
}
