package core

import (
	"bytes"
	"strings"
	"testing"

	"doublechecker/internal/cost"
	"doublechecker/internal/telemetry"
)

// TestPCDWorkersMatchSerial: PCDWorkers is deprecated and ignored, so a run
// that sets it must be observationally identical to one that does not —
// violations, PCD stats, and the deterministic telemetry snapshot, byte for
// byte — across random programs and worker counts.
func TestPCDWorkersMatchSerial(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		prog, atomic := genProgram(seed)
		serial, err := Run(prog, Config{Analysis: DCSingle, Seed: 1, Atomic: atomic})
		if err != nil {
			t.Fatal(err)
		}
		want := serial.Telemetry.Deterministic().JSON()
		for _, workers := range []int{2, 4, 8} {
			par, err := Run(prog, Config{Analysis: DCSingle, Seed: 1, Atomic: atomic, PCDWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := ViolationSignatures(par, prog), ViolationSignatures(serial, prog); len(got) != len(want) {
				t.Fatalf("seed %d workers %d: %v vs serial %v", seed, workers, got, want)
			} else {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d workers %d: violation %d: %q vs %q", seed, workers, i, got[i], want[i])
					}
				}
			}
			if par.PCD != serial.PCD {
				t.Errorf("seed %d workers %d: PCD stats %+v vs serial %+v", seed, workers, par.PCD, serial.PCD)
			}
			if got := par.Telemetry.Deterministic().JSON(); !bytes.Equal(got, want) {
				t.Errorf("seed %d workers %d: deterministic snapshots differ", seed, workers)
			}
		}
	}
}

// TestPCDWorkersOneIsSerial: whatever worker count is asked for, PCD
// replays every SCC in line — one pcd.replay span per SCC, and no pool
// metric or span even in the raw (non-deterministic) snapshot.
func TestPCDWorkersOneIsSerial(t *testing.T) {
	prog, atomic := genContended(3)
	for _, workers := range []int{0, 1, 2} {
		r, err := Run(prog, Config{Analysis: DCSingle, Seed: 1, Atomic: atomic, PCDWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if r.PCD.SCCsProcessed == 0 {
			t.Fatalf("workers=%d: workload replayed no SCC; test needs some", workers)
		}
		if got := r.Telemetry.Spans[telemetry.SpanPCDReplay].Count; got != r.PCD.SCCsProcessed {
			t.Errorf("workers=%d: %d %s spans for %d SCCs", workers, got, telemetry.SpanPCDReplay, r.PCD.SCCsProcessed)
		}
		var names []string
		for n := range r.Telemetry.Counters {
			names = append(names, n)
		}
		for n := range r.Telemetry.Gauges {
			names = append(names, n)
		}
		for n := range r.Telemetry.Histograms {
			names = append(names, n)
		}
		for n := range r.Telemetry.Spans {
			names = append(names, n)
		}
		for _, n := range names {
			if strings.HasPrefix(n, "pcd.pool") {
				t.Errorf("workers=%d: pool metric %s present", workers, n)
			}
		}
	}
}

// TestOffCriticalPathCostConsistent: the ParallelPCD cost model charges PCD
// replay off the critical path, reports it through
// Result.OffCriticalPathCost, and honors the memory budget there (a giant
// SCC replay spike must be able to trip the modelled OOM even when it does
// not delay the program).
func TestOffCriticalPathCostConsistent(t *testing.T) {
	prog, atomic := genContended(7)

	run := func(cfg Config) *Result {
		cfg.Analysis = DCSingle
		cfg.Seed = 5
		cfg.Atomic = atomic
		cfg.Meter = cost.NewMeter(cost.Default())
		r, err := Run(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	inline := run(Config{})
	if inline.OffCriticalPathCost != 0 {
		t.Errorf("in-line run reported off-critical cost %d", inline.OffCriticalPathCost)
	}

	par := run(Config{ParallelPCD: true})
	if par.OffCriticalPathCost == 0 || par.OffCriticalPathCost != par.OffCritical.Total {
		t.Errorf("ParallelPCD: OffCriticalPathCost=%d OffCritical.Total=%d",
			par.OffCriticalPathCost, par.OffCritical.Total)
	}
	// Moving PCD off the critical path must actually relieve the main meter.
	if par.Cost.Total >= inline.Cost.Total {
		t.Errorf("ParallelPCD critical path %d not below in-line %d", par.Cost.Total, inline.Cost.Total)
	}

	// The budget reaches the off-path meter: with a budget tiny enough that
	// replay temporaries exceed it, the off-critical meter must report OOM.
	if r := run(Config{ParallelPCD: true, MemoryBudget: 256}); !r.OffCritical.OOM {
		t.Error("off-critical meter did not trip the 256-byte budget")
	}
}
