// Metamorphic trace transforms: rewritings of a recorded trace that a sound
// and precise checker's verdict must be invariant under. Each transform
// produces a structurally valid trace of a (possibly rewritten) program; the
// golden-corpus invariance tests replay the original and the mutant through
// core.DiffTrace and require identical blamed-method verdicts.

package crosscheck

import (
	"fmt"
	"math/rand"
	"slices"

	"doublechecker/internal/trace"
	"doublechecker/internal/vm"
)

// PermuteThreads renames thread IDs by perm (new ID = perm[old ID]) across
// the whole trace: thread declarations, fork/join targets in method bodies,
// event thread fields, blocked sets, and the synthesized per-thread handle
// objects. The result is the isomorphic execution of the isomorphic program,
// so every checker's blamed-method verdict must be unchanged.
func PermuteThreads(d *trace.Data, perm []int) (*trace.Data, error) {
	prog := d.Header.Program
	n := len(prog.Threads)
	if len(perm) != n {
		return nil, fmt.Errorf("crosscheck: perm length %d, program has %d threads", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("crosscheck: %v is not a permutation of %d threads", perm, n)
		}
		seen[p] = true
	}

	mapThread := func(t vm.ThreadID) vm.ThreadID { return vm.ThreadID(perm[t]) }
	mapObj := func(o vm.ObjectID) vm.ObjectID {
		if int(o) >= prog.NumObjects { // a thread handle object
			return vm.ObjectID(prog.NumObjects + perm[int(o)-prog.NumObjects])
		}
		return o
	}

	np := &vm.Program{
		Name:       prog.Name + "-perm",
		Methods:    make([]*vm.Method, len(prog.Methods)),
		Threads:    make([]vm.ThreadDecl, n),
		NumObjects: prog.NumObjects,
		ArrayLens:  prog.ArrayLens,
	}
	for i, m := range prog.Methods {
		nm := &vm.Method{ID: m.ID, Name: m.Name, Body: make([]vm.Op, len(m.Body))}
		copy(nm.Body, m.Body)
		for j, op := range nm.Body {
			if op.Kind == vm.OpFork || op.Kind == vm.OpJoin {
				nm.Body[j].Target = int32(perm[op.Target])
			}
		}
		np.Methods[i] = nm
	}
	for _, td := range prog.Threads {
		nid := mapThread(td.ID)
		np.Threads[nid] = vm.ThreadDecl{ID: nid, Entry: td.Entry, AutoStart: td.AutoStart}
	}
	if err := np.Validate(); err != nil {
		return nil, fmt.Errorf("crosscheck: permuted program invalid: %w", err)
	}

	nd := &trace.Data{
		Header:   d.Header,
		Events:   make([]trace.Event, len(d.Events)),
		Counts:   d.Counts,
		Complete: d.Complete,
	}
	nd.Header.Program = np
	var set []vm.ThreadID
	for i, ev := range d.Events {
		ne := ev
		switch ev.Kind {
		case trace.EvThreadStart, trace.EvThreadExit, trace.EvTxBegin, trace.EvTxEnd:
			ne.Thread = mapThread(ev.Thread)
		case trace.EvAccess:
			ne.Thread = mapThread(ev.Thread)
			ne.Obj = mapObj(ev.Obj)
		case trace.EvBlockedSet:
			set = set[:0]
			for _, t := range d.BlockedSet(ev) {
				set = append(set, mapThread(t))
			}
			slices.Sort(set)
			ne = nd.NewBlockedSet(set)
		}
		nd.Events[i] = ne
	}
	return nd, nil
}

// ReverseThreads is PermuteThreads with the reversing permutation — the
// default mutation used by the invariance tests.
func ReverseThreads(d *trace.Data) (*trace.Data, error) {
	n := len(d.Header.Program.Threads)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = n - 1 - i
	}
	return PermuteThreads(d, perm)
}

// SwapCommutative swaps up to n adjacent event pairs that commute: both are
// data (non-synchronization) accesses, by different threads, to different
// objects. Such a swap preserves each thread's program order, the
// synchronization order, and every per-object access order — only the
// interleaving of independent operations changes — so the transactional
// dependence graph, and with it every checker's verdict, is untouched. The
// two events exchange positions and clock values, keeping the access clock
// strictly ascending. Pairs are chosen by a seeded walk; the number of swaps
// actually applied is returned.
func SwapCommutative(d *trace.Data, seed int64, n int) (*trace.Data, int) {
	nd := *d // blocked-set events keep pointing into d's arena
	nd.Events = slices.Clone(d.Events)
	rng := rand.New(rand.NewSource(seed))
	swapped := 0
	for attempts := 0; swapped < n && attempts < 16*n; attempts++ {
		if len(nd.Events) < 2 {
			break
		}
		i := rng.Intn(len(nd.Events) - 1)
		a, b := nd.Events[i], nd.Events[i+1]
		if !commutes(a, b) {
			continue
		}
		a.Seq, b.Seq = b.Seq, a.Seq
		nd.Events[i], nd.Events[i+1] = b, a
		swapped++
	}
	return &nd, swapped
}

// commutes reports whether two adjacent events may be exchanged without
// changing any order a checker observes: both must be plain data accesses
// (field or array — synchronization accesses order threads), from different
// threads (program order is sacred), on different objects (per-object access
// order is what dependence edges are built from; object granularity, so
// distinct fields of one object stay ordered too).
func commutes(a, b trace.Event) bool {
	if a.Kind != trace.EvAccess || b.Kind != trace.EvAccess {
		return false
	}
	if a.Class == vm.ClassSync || b.Class == vm.ClassSync {
		return false
	}
	return a.Thread != b.Thread && a.Obj != b.Obj
}

// RenameMethods rewrites every method name to a fresh, deterministic name
// (the ID stays, so the ID-based atomicity specification is untouched). A
// checker's verdict must be the same violations modulo the renaming; the
// invariance tests compare blamed-method ID sets, which renaming cannot
// move.
func RenameMethods(d *trace.Data) *trace.Data {
	prog := d.Header.Program
	np := &vm.Program{
		Name:       prog.Name + "-renamed",
		Methods:    make([]*vm.Method, len(prog.Methods)),
		Threads:    prog.Threads,
		NumObjects: prog.NumObjects,
		ArrayLens:  prog.ArrayLens,
	}
	for i, m := range prog.Methods {
		np.Methods[i] = &vm.Method{
			ID:   m.ID,
			Name: fmt.Sprintf("renamed_%03d", m.ID),
			Body: m.Body,
		}
	}
	nd := *d
	nd.Header.Program = np
	return &nd
}
