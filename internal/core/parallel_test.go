package core

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"doublechecker/internal/cost"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/txn"
)

// TestPCDWorkersMatchSerial: the concurrent pool must be observationally
// identical to the serial checker — violations, PCD stats, and the
// deterministic telemetry snapshot, byte for byte — across random programs
// and worker counts.
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
			if len(par.PCDQuarantined) != 0 {
				t.Errorf("seed %d workers %d: unexpected quarantines %v", seed, workers, par.PCDQuarantined)
			}
		}
	}
}

// TestPCDWorkersOneIsSerial: 0 and 1 keep the in-line replay — no pool
// metrics appear even in the raw (non-deterministic) snapshot.
func TestPCDWorkersOneIsSerial(t *testing.T) {
	prog, atomic := genContended(3)
	for _, workers := range []int{0, 1} {
		r, err := Run(prog, Config{Analysis: DCSingle, Seed: 1, Atomic: atomic, PCDWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if v := r.Telemetry.Gauges[telemetry.PCDPoolWorkers]; v != 0 {
			t.Errorf("workers=%d: pool gauge %v present in serial run", workers, v)
		}
	}
	r, err := Run(prog, Config{Analysis: DCSingle, Seed: 1, Atomic: atomic, PCDWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Telemetry.Gauges[telemetry.PCDPoolWorkers]; v != 2 {
		t.Errorf("pool gauge = %v, want 2", v)
	}
	if _, ok := r.Telemetry.Deterministic().Gauges[telemetry.PCDPoolWorkers]; ok {
		t.Error("Deterministic() kept a live-only pool gauge")
	}
}

// TestOffCriticalPathCostConsistent pins the serial-path asymmetry fix: both
// the ParallelPCD cost model and the real worker pool charge PCD replay off
// the critical path, reported through Result.OffCriticalPathCost, and both
// honor the memory budget there (a giant SCC replay spike must be able to
// trip the modelled OOM even when it does not delay the program).
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

	serial := run(Config{ParallelPCD: true})
	if serial.OffCriticalPathCost == 0 || serial.OffCriticalPathCost != serial.OffCritical.Total {
		t.Errorf("serial ParallelPCD: OffCriticalPathCost=%d OffCritical.Total=%d",
			serial.OffCriticalPathCost, serial.OffCritical.Total)
	}

	pooled := run(Config{PCDWorkers: 4})
	if pooled.OffCriticalPathCost == 0 || pooled.OffCriticalPathCost != pooled.OffCritical.Total {
		t.Errorf("pooled: OffCriticalPathCost=%d OffCritical.Total=%d",
			pooled.OffCriticalPathCost, pooled.OffCritical.Total)
	}
	// Moving PCD off the critical path must actually relieve the main meter.
	if pooled.Cost.Total >= inline.Cost.Total {
		t.Errorf("pooled critical path %d not below in-line %d", pooled.Cost.Total, inline.Cost.Total)
	}

	// The budget reaches the off-path meters: with a budget tiny enough that
	// replay temporaries exceed it, both off-path modes must report OOM there.
	for name, cfg := range map[string]Config{
		"serial": {ParallelPCD: true, MemoryBudget: 256},
		"pooled": {PCDWorkers: 4, MemoryBudget: 256},
	} {
		r := run(cfg)
		if !r.OffCritical.OOM {
			t.Errorf("%s: off-critical meter did not trip the 256-byte budget", name)
		}
	}
}

// TestPCDPoolQuarantine: a worker panic is contained to its SCC — the run
// completes, other SCCs are still checked, and the failure is recorded with
// a stable stack digest.
func TestPCDPoolQuarantine(t *testing.T) {
	prog, atomic := genContended(9)
	r, err := Run(prog, Config{
		Analysis:   DCSingle,
		Seed:       5,
		Atomic:     atomic,
		PCDWorkers: 2,
		PCDPoolHook: func(index uint64, scc []*txn.Txn) {
			if index == 0 {
				panic("injected SCC fault")
			}
		},
	})
	if err != nil {
		t.Fatalf("quarantined run must not fail: %v", err)
	}
	if len(r.PCDQuarantined) != 1 {
		t.Fatalf("quarantined = %v, want exactly one", r.PCDQuarantined)
	}
	q := r.PCDQuarantined[0]
	if q.Index != 0 || q.Err == "" || q.Digest == "" {
		t.Errorf("quarantine record incomplete: %+v", q)
	}
	if got := r.Telemetry.Counter(telemetry.PCDPoolQuarantined); got != 1 {
		t.Errorf("%s = %d, want 1", telemetry.PCDPoolQuarantined, got)
	}
	if r.ICD.SCCs < 2 {
		t.Fatalf("workload produced %d SCCs; test needs several", r.ICD.SCCs)
	}
	if r.PCD.SCCsProcessed != uint64(r.ICD.SCCs-1) {
		t.Errorf("processed %d SCCs; want %d (all but the quarantined one)",
			r.PCD.SCCsProcessed, r.ICD.SCCs-1)
	}
}

// TestPCDPoolCancellation: canceling the run drains the pool — RunContext
// returns promptly and the workers exit (no goroutine leak across many
// canceled runs).
func TestPCDPoolCancellation(t *testing.T) {
	prog, atomic := genContended(13)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		_, err := RunContext(ctx, prog, Config{Analysis: DCSingle, Seed: 5, Atomic: atomic, PCDWorkers: 4})
		if err == nil {
			t.Fatal("canceled run must fail")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+10 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+10 {
		t.Errorf("goroutines grew from %d to %d: pool workers leaked", before, n)
	}
}
