//go:build !race

package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"doublechecker/internal/spec"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

// TestLoggingRunAllocBudget is the allocation budget of a logging run:
// single-run DoubleChecker (ICD with logs, PCD on each SCC) on xalan6 at
// scale 2, under the workload's sticky scheduler and without a meter, as the
// library runs it. Everything the runs allocate counts — VM, Octet, ICD, the
// transaction manager's logs and elision tables, PCD, telemetry — divided by
// the log entries they append. One run warms the shared arena pool first.
// The runs get one P and no collections, so each takes the arena the
// previous one left: a collection empties the pool, and a Get on another P
// misses what Put left in this P's private slot. A run that misses rebuilds
// its engine, about 10 bytes per entry more.
//
// Measured 62.7 bytes per log entry since the transaction manager carves
// each transaction's log from its thread's chunk; 113.5 when every log grew
// by append from nil. The budget leaves about 7 bytes per entry of headroom,
// under the cost of one run that misses the pool.
func TestLoggingRunAllocBudget(t *testing.T) {
	const budget = 70 // bytes per log entry
	built, err := workloads.Build("xalan6", 2)
	if err != nil {
		t.Fatal(err)
	}
	sp := spec.Initial(built.Prog)
	if err := sp.ExcludeByName(built.InitialExclusions...); err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) uint64 {
		res, err := Run(built.Prog, Config{
			Analysis: DCSingle,
			Sched:    vm.NewSticky(seed, built.Stickiness),
			Atomic:   sp.Atomic,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Txn.LogEntries
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var entries uint64
	for seed := int64(1); seed <= 4; seed++ {
		entries += run(seed)
	}
	runtime.ReadMemStats(&after)
	perEntry := float64(after.TotalAlloc-before.TotalAlloc) / float64(entries)
	t.Logf("%.1f bytes per log entry over %d entries", perEntry, entries)
	if perEntry > budget {
		t.Errorf("logging run allocates %.1f bytes per log entry, budget %d", perEntry, budget)
	}
}
