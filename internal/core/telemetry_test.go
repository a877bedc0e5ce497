package core

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"doublechecker/internal/cost"
	"doublechecker/internal/spec"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/trace"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

func replayGolden(t *testing.T, name string) *Result {
	t.Helper()
	d, err := trace.ReadFile(filepath.Join("..", "..", "testdata", "traces", name))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTrace(context.Background(), d, Config{Analysis: DCSingle})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTraceTelemetryDeterministic is the determinism contract's gate: every
// metered replay of a golden trace under one analysis must charge the same
// cost and yield byte-identical deterministic telemetry JSON (span wall
// times, the one nondeterministic quantity, are stripped). Each replay gets
// a fresh meter. Cycle checks charge per visited node, so a checker that
// adds edges in map order moves the total from one replay to the next;
// thirty replays make such an order show.
func TestTraceTelemetryDeterministic(t *testing.T) {
	const replays = 30
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "traces", "*.dct"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus: %v (%d files)", err, len(paths))
	}
	for _, path := range paths {
		d, err := trace.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(filepath.Base(path), func(t *testing.T) {
			for _, a := range []Analysis{DCSingle, DCFirst, PCDOnly, Velodrome, VelodromeUnsound} {
				t.Run(a.String(), func(t *testing.T) {
					var first *Result
					var firstTel []byte
					for i := 0; i < replays; i++ {
						res, err := RunTrace(context.Background(), d, Config{Analysis: a, Meter: cost.NewMeter(cost.Default())})
						if err != nil {
							t.Fatal(err)
						}
						tel := res.Telemetry.Deterministic().JSON()
						if first == nil {
							first, firstTel = res, tel
							// vm.steps is live-only (a trace records no steps);
							// the event-derived vm counters are what a replay
							// publishes.
							if !strings.Contains(string(tel), telemetry.VMTxEnds) {
								t.Fatalf("snapshot missing vm counters:\n%s", tel)
							}
							continue
						}
						if res.Cost != first.Cost {
							t.Fatalf("replay %d cost %+v, first replay %+v", i, res.Cost, first.Cost)
						}
						if !bytes.Equal(tel, firstTel) {
							t.Fatalf("replay %d deterministic telemetry diverges:\n%s\nvs\n%s", i, tel, firstTel)
						}
					}
				})
			}
		})
	}
}

// TestRunTelemetryPrivateRegistry: with Config.Telemetry nil every run gets
// its own registry, so two runs don't accumulate into each other. A run
// given a registry leaves Result.Telemetry nil, and the registry's own
// snapshot holds what the private one would have.
func TestRunTelemetryPrivateRegistry(t *testing.T) {
	a := replayGolden(t, "elevator.dct")
	b := replayGolden(t, "elevator.dct")
	if a.Telemetry.Counter(telemetry.VMFieldAccesses) != b.Telemetry.Counter(telemetry.VMFieldAccesses) {
		t.Errorf("identical replays disagree on field accesses: %d vs %d",
			a.Telemetry.Counter(telemetry.VMFieldAccesses), b.Telemetry.Counter(telemetry.VMFieldAccesses))
	}
	if a.Telemetry.Counter(telemetry.VMFieldAccesses) == 0 {
		t.Error("vm.accesses.field = 0 after a replay")
	}

	d, err := trace.ReadFile(filepath.Join("..", "..", "testdata", "traces", "elevator.dct"))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	shared, err := RunTrace(context.Background(), d, Config{Analysis: DCSingle, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Telemetry != nil {
		t.Error("a run given a registry returned a snapshot")
	}
	if got, want := reg.Snapshot().Deterministic().JSON(), a.Telemetry.Deterministic().JSON(); !bytes.Equal(got, want) {
		t.Errorf("the shared registry's snapshot differs from the private run's:\n%s\nwant\n%s", got, want)
	}
}

// TestMontecarloTelemetryAcceptance runs the montecarlo workload live under
// single-run mode and checks the pipeline's headline quantities are all
// observed: at least three Octet transition kinds fire, the SCC size
// histogram is non-empty, and the PCD replayed-transaction fraction lands
// in (0, 1].
func TestMontecarloTelemetryAcceptance(t *testing.T) {
	b, err := workloads.Build("montecarlo", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sp := spec.Initial(b.Prog)
	if err := sp.ExcludeByName(b.InitialExclusions...); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	for seed := int64(0); seed < 8; seed++ {
		if _, err := Run(b.Prog, Config{
			Analysis:  DCSingle,
			Sched:     vm.NewSticky(seed, b.Stickiness),
			Atomic:    sp.Atomic,
			Telemetry: reg,
		}); err != nil {
			t.Fatal(err)
		}
		if reg.Snapshot().Gauge(telemetry.PCDTxFraction) > 0 {
			break // an SCC reached PCD; the pipeline is fully exercised
		}
	}
	s := reg.Snapshot()

	kinds := 0
	for _, name := range []string{
		telemetry.OctetFastPath, telemetry.OctetInitial, telemetry.OctetUpgrading,
		telemetry.OctetFence, telemetry.OctetConflicting,
	} {
		if s.Counter(name) > 0 {
			kinds++
		}
	}
	if kinds < 3 {
		t.Errorf("only %d octet transition kinds observed, want >= 3:\n%s", kinds, s.JSON())
	}
	if h, ok := s.Histograms[telemetry.ICDSCCSize]; !ok || h.Count == 0 {
		t.Errorf("SCC size histogram empty:\n%s", s.JSON())
	}
	frac := s.Gauge(telemetry.PCDTxFraction)
	if !(frac > 0 && frac <= 1) {
		t.Errorf("pcd.replayed_tx_fraction = %v, want in (0,1]:\n%s", frac, s.JSON())
	}
}

// TestDiffTraceTelemetry: DiffTrace carries per-checker deterministic
// snapshots so divergences can be localized to a pipeline stage.
func TestDiffTraceTelemetry(t *testing.T) {
	d, err := trace.ReadFile(filepath.Join("..", "..", "testdata", "traces", "hsqldb6.dct"))
	if err != nil {
		t.Fatal(err)
	}
	td, err := DiffTrace(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if td.DCTelemetry == nil || td.VeloTelemetry == nil || td.FirstTelemetry == nil {
		t.Fatal("diff missing per-checker telemetry")
	}
	if td.DCTelemetry.Counter(telemetry.VMFieldAccesses) == 0 {
		t.Error("dc-single snapshot has no field accesses")
	}
	if td.VeloTelemetry.Counter(telemetry.VeloMetadataUpdates) == 0 {
		t.Error("velodrome snapshot has no metadata updates")
	}
	for name, snap := range map[string]interface{ JSON() []byte }{
		"dc": td.DCTelemetry, "velo": td.VeloTelemetry, "first": td.FirstTelemetry,
	} {
		if strings.Contains(string(snap.JSON()), `"wall_ns"`) {
			t.Errorf("%s snapshot not deterministic (has wall_ns)", name)
		}
	}
}

// TestAbortedRunPublishesNoCounter: a run that deadlocks adds no counter to
// a shared registry, checker counts included, while its execute span still
// counts. abbaProg deadlocks under this schedule after Octet has already
// taken transitions and ICD has added IDG edges.
func TestAbortedRunPublishesNoCounter(t *testing.T) {
	prog, atomic := abbaProg()
	reg := telemetry.NewRegistry()
	_, err := Run(prog, Config{Analysis: DCSingle, Sched: vm.NewRandom(0), Atomic: atomic, Telemetry: reg})
	if !errors.Is(err, vm.ErrDeadlock) {
		t.Fatalf("want a deadlock, got %v", err)
	}
	s := reg.Snapshot()
	if len(s.Counters) != 0 {
		t.Errorf("an aborted run published counters: %v", s.Counters)
	}
	if n := s.Spans[telemetry.SpanExecute].Count; n != 1 {
		t.Errorf("%s span count = %d, want 1", telemetry.SpanExecute, n)
	}
}
