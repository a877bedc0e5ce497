//go:build !race

package pcd

import (
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

// TestPCDReplayAllocs is the allocation budget of BySeq replay: once a
// warm-up call has sized the Checker's working state, re-processing an SCC
// that adds no PDG edge allocates nothing, metered and with telemetry
// attached. (AllocsPerRun needs the non-race runtime.)
func TestPCDReplayAllocs(t *testing.T) {
	for _, n := range []int{32, 4096} {
		scc := distinctFieldSCC(n)
		c := NewChecker(cost.NewMeter(cost.Default()), BySeq)
		c.SetTelemetry(telemetry.NewRegistry())
		c.Process(scc)
		allocs := testing.AllocsPerRun(20, func() { c.Process(scc) })
		if st := c.Stats(); st.EntriesReplayed != uint64(22*n) || st.PDGEdges != 0 {
			t.Fatalf("%d entries: replayed %d entries and %d PDG edges over 22 calls, want %d and 0",
				n, st.EntriesReplayed, st.PDGEdges, 22*n)
		}
		if allocs != 0 {
			t.Errorf("%d entries: %.0f allocations per Process, want 0", n, allocs)
		}
	}
}
