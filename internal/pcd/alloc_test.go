//go:build !race

package pcd

import (
	"slices"
	"testing"

	"doublechecker/internal/cost"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// distinctFieldSCC builds an SCC of four transactions on four threads whose
// n interleaved reads and writes all touch distinct fields, so replaying it
// adds no PDG edge.
func distinctFieldSCC(n int) []*txn.Txn {
	e := newEnv()
	const threads = 4
	var scc []*txn.Txn
	for th := vm.ThreadID(0); th < threads; th++ {
		scc = append(scc, e.begin(th, vm.MethodID(th+1)))
	}
	for i := 0; i < n; i++ {
		e.access(vm.ThreadID(i%threads), vm.ObjectID(i/2+1), vm.FieldID(i%2), i%3 == 0)
	}
	for th := vm.ThreadID(0); th < threads; th++ {
		e.end(th)
	}
	return scc
}

// acyclicSCC builds an SCC of n transactions on four threads that run
// strictly one at a time and share three fields, handed over in reverse ID
// order. Replaying it adds PDG edges and runs a cycle check for each, but
// finds no cycle: every dependence points forward in time.
func acyclicSCC(n int) []*txn.Txn {
	e := newEnv()
	const threads = 4
	var scc []*txn.Txn
	for k := 0; k < n; k++ {
		th := vm.ThreadID(k % threads)
		scc = append(scc, e.begin(th, vm.MethodID(th+1)))
		e.access(th, vm.ObjectID(k%3+1), 0, k%2 == 0)
		e.access(th, vm.ObjectID((k+1)%3+1), 0, k%3 == 0)
		e.end(th)
	}
	slices.Reverse(scc)
	return scc
}

// TestPCDReplayAllocs is the allocation budget of BySeq replay: once a
// warm-up call has sized the Checker's working state, re-processing an SCC
// allocates nothing, metered and with telemetry attached. That holds for
// SCCs that add no PDG edge and for an acyclic one whose replay adds edges
// and searches for a cycle through each. (AllocsPerRun needs the non-race
// runtime.)
func TestPCDReplayAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scc   []*txn.Txn
		edges bool
	}{
		{"32 entries on distinct fields", distinctFieldSCC(32), false},
		{"4096 entries on distinct fields", distinctFieldSCC(4096), false},
		{"acyclic SCC of 24 transactions", acyclicSCC(24), true},
	} {
		c := NewChecker(cost.NewMeter(cost.Default()), BySeq)
		c.SetTelemetry(telemetry.NewRegistry())
		c.Process(tc.scc)
		one := c.Stats()
		allocs := testing.AllocsPerRun(20, func() { c.Process(tc.scc) })
		st := c.Stats()
		entries := 0
		for _, tx := range tc.scc {
			entries += len(tx.Log)
		}
		if one.EntriesReplayed != uint64(entries) || st.EntriesReplayed != 22*one.EntriesReplayed ||
			st.PDGEdges != 22*one.PDGEdges || st.CycleChecks != 22*one.CycleChecks || st.PreciseCycles != 0 {
			t.Fatalf("%s: stats %+v over 22 calls, first call %+v; want 22 calls of %d entries each, equal, and no cycle",
				tc.name, st, one, entries)
		}
		if got := one.PDGEdges > 0 && one.CycleChecks > 0; got != tc.edges {
			t.Fatalf("%s: one call adds %d PDG edges and runs %d cycle checks", tc.name, one.PDGEdges, one.CycleChecks)
		}
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations per Process, want 0", tc.name, allocs)
		}
	}
}
