package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"doublechecker/internal/cost"
	"doublechecker/internal/spec"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/trace"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

// faultOnlyMetrics are exported metrics that only faults move: transactions
// a crash left open. Each has a test of its own that drives it non-zero.
var faultOnlyMetrics = map[string]bool{
	telemetry.VMAbortedTx: true,
}

// TestNoMetricAlwaysZero runs every checker configuration — metered and
// unmetered, live and replayed — and fails if any metric or span field a
// configuration exports reads zero in every one of its runs: such a metric
// is written but carries no information.
func TestNoMetricAlwaysZero(t *testing.T) {
	const scale = 0.5
	// check runs one input under a configuration.
	type check func(Config) (*Result, error)
	inputs := map[bool][]check{} // replay? -> inputs
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "traces", "*.dct"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus: %v (%d files)", err, len(paths))
	}
	replay := func(d *trace.Data) check {
		return func(cfg Config) (*Result, error) { return RunTrace(context.Background(), d, cfg) }
	}
	for _, p := range paths {
		d, err := trace.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		inputs[true] = append(inputs[true], replay(d))
	}
	for _, name := range append([]string{"xalan6", "avrora9"}, workloads.Stress()...) {
		b, err := workloads.Build(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		sp := spec.Initial(b.Prog)
		if err := sp.ExcludeByName(b.InitialExclusions...); err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			inputs[false] = append(inputs[false], func(cfg Config) (*Result, error) {
				cfg.Sched = vm.NewSticky(seed, b.Stickiness)
				cfg.Atomic = sp.Atomic
				return Run(b.Prog, cfg)
			})
		}
		// The golden traces are too small for modelled GC to charge
		// anything; these two Figure 7 programs are not.
		if name == "xalan6" || name == "avrora9" {
			inputs[true] = append(inputs[true], replay(recordTrace(t, b, sp, 1)))
		}
	}

	analyses := []struct {
		name string
		cfg  Config
	}{
		{"dc-single", Config{Analysis: DCSingle}},
		// PCDWorkers is deprecated and ignored: setting it must leave the
		// exported metrics as they are under dc-single.
		{"dc-single-pool", Config{Analysis: DCSingle, PCDWorkers: 4}},
		{"dc-first", Config{Analysis: DCFirst}},
		{"velodrome", Config{Analysis: Velodrome}},
		{"velodrome-unsound", Config{Analysis: VelodromeUnsound}},
	}
	for _, a := range analyses {
		for _, metered := range []bool{false, true} {
			for _, replayed := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/metered=%v/replay=%v", a.name, metered, replayed), func(t *testing.T) {
					var snaps []*telemetry.Snapshot
					for _, run := range inputs[replayed] {
						cfg := a.cfg
						if metered {
							cfg.Meter = cost.NewMeter(cost.Default())
						}
						res, err := run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						snaps = append(snaps, res.Telemetry)
					}
					for _, dead := range alwaysZero(snaps) {
						t.Errorf("%s reads zero in all %d runs", dead, len(snaps))
					}
				})
			}
		}
	}
}

// TestCrashTraceReportsAbortedTx drives the fault-only vm.aborted_tx gauge:
// a trace recorded up to a deadlock replays to completion, and the
// transaction the deadlock left open is reported as aborted.
func TestCrashTraceReportsAbortedTx(t *testing.T) {
	prog, _ := stuckProg()
	main := prog.MethodByName("main").ID
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Program: prog, Atomic: []vm.MethodID{main}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RecordRun(context.Background(), prog, w, RecordConfig{Config: Config{
		Analysis: DCSingle,
		Atomic:   func(m vm.MethodID) bool { return m == main },
	}})
	if !errors.Is(err, vm.ErrDeadlock) {
		t.Fatalf("recording: want a deadlock, got %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Complete {
		t.Fatal("a deadlocked run's trace must be incomplete")
	}
	res, err := RunTrace(context.Background(), d, Config{Analysis: DCSingle})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Telemetry.Gauge(telemetry.VMAbortedTx); got != 1 {
		t.Errorf("%s = %v, want 1", telemetry.VMAbortedTx, got)
	}
}

// recordTrace records one live run of b and decodes it back.
func recordTrace(t *testing.T, b *workloads.Built, sp *spec.Spec, seed int64) *trace.Data {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Program: b.Prog, Atomic: sp.AtomicMethods(), Seed: seed, Source: b.Prog.Name})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecordRun(context.Background(), b.Prog, w, RecordConfig{Config: Config{
		Analysis: Baseline,
		Sched:    vm.NewSticky(seed, b.Stickiness),
		Atomic:   sp.Atomic,
	}}); err != nil {
		t.Fatal(err)
	}
	d, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// alwaysZero returns, sorted, every metric and span field present in some
// snapshot that is zero wherever it appears, fault-only metrics excepted.
func alwaysZero(snaps []*telemetry.Snapshot) []string {
	seen := map[string]bool{} // field -> some run had it non-zero
	note := func(field string, nonzero bool) {
		if faultOnlyMetrics[field] {
			return
		}
		seen[field] = seen[field] || nonzero
	}
	for _, s := range snaps {
		for n, v := range s.Counters {
			note(n, v != 0)
		}
		for n, v := range s.Gauges {
			note(n, v != 0)
		}
		for n, h := range s.Histograms {
			note(n, h.Count != 0)
		}
		for n, sp := range s.Spans {
			note("span "+n+" count", sp.Count != 0)
			note("span "+n+" wall_ns", sp.WallNanos != 0)
			if sp.CostUnits != nil {
				note("span "+n+" cost_units", *sp.CostUnits != 0)
			}
		}
	}
	var dead []string
	for field, nonzero := range seen {
		if !nonzero {
			dead = append(dead, field)
		}
	}
	sort.Strings(dead)
	return dead
}
