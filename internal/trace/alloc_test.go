//go:build !race

package trace_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"doublechecker/internal/core"
	"doublechecker/internal/spec"
	"doublechecker/internal/trace"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

// recordWorkload records one schedule of a named workload the way perfbench
// records a serve-mix upload: the workload's initial specification, its
// sticky scheduler at seed, and Velodrome checking live.
func recordWorkload(t *testing.T, name string, scale float64, seed int64) []byte {
	t.Helper()
	built, err := workloads.Build(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	sp := spec.Initial(built.Prog)
	if err := sp.ExcludeByName(built.InitialExclusions...); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{
		Program: built.Prog,
		Atomic:  sp.AtomicMethods(),
		Seed:    seed,
		Sched:   fmt.Sprintf("sticky(%g)", built.Stickiness),
		Source:  name,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.RecordRun(context.Background(), built.Prog, w, core.RecordConfig{
		Config: core.Config{
			Analysis: core.Velodrome,
			Sched:    vm.NewSticky(seed, built.Stickiness),
			Atomic:   sp.Atomic,
		},
		Source: name,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadAllocBudget is the decode allocation budget: reading a serve-mix
// sized trace (hsqldb6 at scale 2, schedule seed 1) allocates at most 100
// bytes per decoded event, everything included: the events array and its
// growth, chunk payloads, the embedded program and the reader's buffers.
// (The allocation counters need the non-race runtime.)
func TestReadAllocBudget(t *testing.T) {
	const budget = 100 // bytes per decoded event
	raw := recordWorkload(t, "hsqldb6", 2, 1)
	if _, err := trace.Read(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	const reads = 4
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var events int
	for i := 0; i < reads; i++ {
		d, err := trace.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		events += len(d.Events)
	}
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(events)
	t.Logf("%d-byte trace, %d events: %.1f bytes allocated per decoded event",
		len(raw), events/reads, perEvent)
	if perEvent > budget {
		t.Errorf("Read allocates %.1f bytes per decoded event, budget %d", perEvent, budget)
	}
}
