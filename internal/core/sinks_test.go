package core

import (
	"context"
	"path/filepath"
	"sort"
	"testing"

	"doublechecker/internal/cost"
	"doublechecker/internal/obs"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/trace"
)

// phaseTally is one phase's totals as seen by one sink.
type phaseTally struct {
	count   uint64
	units   int64
	metered bool // some occurrence reported cost_units
}

// TestPhaseSpanSinksAgree replays every golden trace traced and metered and
// checks that the three sinks of the phase spans agree: for every phase
// name, the trace tree holds as many spans as the registry counted, with the
// same summed cost_units (or none on both sides for unmetered phases), and
// the flight recorder saw each of those spans end.
func TestPhaseSpanSinksAgree(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "traces", "*.dct"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus: %v (%d files)", err, len(paths))
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"dc-single", Config{Analysis: DCSingle}},
		// PCDWorkers is deprecated and ignored: PCD still replays in line
		// under one pcd.replay span per SCC.
		{"dc-single-pool", Config{Analysis: DCSingle, PCDWorkers: 4}},
		{"velodrome", Config{Analysis: Velodrome}},
	}
	for _, path := range paths {
		d, err := trace.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range configs {
			t.Run(filepath.Base(path)+"/"+c.name, func(t *testing.T) {
				rec := obs.NewFlightRecorder(1 << 16)
				tr := obs.NewTrace(obs.TraceConfig{Name: "sinks", Recorder: rec, Limit: 1 << 20})
				cfg := c.cfg
				cfg.Meter = cost.NewMeter(cost.Default())
				res, err := RunTrace(obs.ContextWithSpan(context.Background(), tr.Root()), d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				tr.Finish()
				if tr.Dropped() != 0 {
					t.Fatalf("trace dropped %d spans", tr.Dropped())
				}
				comparePhaseSinks(t, res.Telemetry, tr.Snapshot(), rec.Snapshot())
			})
		}
	}
}

// comparePhaseSinks checks one run's registry snapshot against its trace
// spans and flight-recorder events.
func comparePhaseSinks(t *testing.T, snap *telemetry.Snapshot, spans []obs.SpanRecord, events []obs.Event) {
	t.Helper()
	// Request plumbing that opens plain obs spans (no registry aggregate).
	plumbing := map[string]bool{"sinks": true, telemetry.SpanCoreRun: true, telemetry.SpanCoreCollect: true}
	traced := map[string]*phaseTally{}
	for _, sp := range spans {
		if plumbing[sp.Name] {
			continue
		}
		pt := traced[sp.Name]
		if pt == nil {
			pt = &phaseTally{}
			traced[sp.Name] = pt
		}
		pt.count++
		for _, a := range sp.Attrs {
			if a.Key == "cost_units" {
				pt.units += a.Val.(int64)
				pt.metered = true
			}
		}
	}
	recorded := map[string]uint64{}
	for _, e := range events {
		if e.Kind == obs.EventSpan && !plumbing[e.Name] {
			recorded[e.Name]++
		}
	}
	names := map[string]bool{}
	for n := range snap.Spans {
		names[n] = true
	}
	for n := range traced {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		reg, inReg := snap.Spans[n]
		tr := traced[n]
		if tr == nil {
			tr = &phaseTally{}
		}
		if !inReg {
			t.Errorf("%s: %d trace spans, none in the registry", n, tr.count)
			continue
		}
		if reg.Count != tr.count {
			t.Errorf("%s: registry counts %d spans, trace has %d", n, reg.Count, tr.count)
		}
		if recorded[n] != reg.Count {
			t.Errorf("%s: registry counts %d spans, flight recorder saw %d end", n, reg.Count, recorded[n])
		}
		switch {
		case (reg.CostUnits != nil) != tr.metered:
			t.Errorf("%s: registry metered %v, trace carries cost_units %v", n, reg.CostUnits != nil, tr.metered)
		case reg.CostUnits != nil && *reg.CostUnits != tr.units:
			t.Errorf("%s: registry has %d cost units, trace sums %d", n, *reg.CostUnits, tr.units)
		}
	}
}
