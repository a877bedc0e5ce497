//go:build !race

package icd

import (
	"runtime"
	"testing"

	"doublechecker/internal/cost"
	"doublechecker/internal/spec"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

// fakeExec is a minimal ExecView for driving a Checker directly (no VM):
// every thread is unblocked and non-transactional, and the clock is a
// counter. That keeps the alloc budgets below about the checker alone.
type fakeExec struct{ now uint64 }

func (f *fakeExec) Now() uint64                      { f.now++; return f.now }
func (f *fakeExec) Blocked(vm.ThreadID) bool         { return false }
func (f *fakeExec) InTx(vm.ThreadID) bool            { return false }
func (f *fakeExec) TxMethod(vm.ThreadID) vm.MethodID { return vm.NoMethod }

// TestICDHotPathAllocs pins the allocation discipline of the multi-run first
// run (no logging, no SCC handoff): with transaction recycling, slice-backed
// octet state, and the incremental engine's free lists warmed up, the
// steady-state per-access paths must not allocate at all.
//
// The budgets are exact (0 allocs/op); the test is excluded under -race,
// whose instrumentation allocates.
func TestICDHotPathAllocs(t *testing.T) {
	b := vm.NewBuilder("allocs")
	for i := 0; i < 4; i++ {
		b.Object()
	}
	o := b.Object()
	m := b.Method("spin")
	m.Read(o, 0)
	b.Thread(m)
	b.Thread(m)
	prog := b.MustBuild()

	// Octet fast path: repeated same-owner reads (WrEx/RdEx hit, no
	// transition, no log).
	t.Run("octet-fast-path", func(t *testing.T) {
		c := NewChecker(prog, cost.NewMeter(cost.Default()), Options{GCPeriod: 1 << 30})
		c.ProgramStart(&fakeExec{})
		c.ThreadStart(0)
		var seq uint64
		access := func(th vm.ThreadID, obj vm.ObjectID, write bool) {
			seq++
			c.Access(vm.Access{Thread: th, Obj: obj, Write: write, Class: vm.ClassField, Seq: seq})
		}
		for i := 0; i < 64; i++ { // warm up: claim objects, grow state tables
			access(0, vm.ObjectID(i%4), true)
		}
		if n := testing.AllocsPerRun(200, func() { access(0, 0, false) }); n != 0 {
			t.Errorf("octet fast path: %v allocs/op, want 0", n)
		}
	})

	// IDG edge-insert path: a two-thread write ping-pong drives a conflicting
	// transition (edge + fresh unary sink + engine insertion) at every
	// access, and periodic GC recycles the retired chain. After warm-up the
	// whole loop — barriers, edges, transaction churn, engine maintenance,
	// collection — must run out of free lists.
	t.Run("idg-edge-insert", func(t *testing.T) {
		c := NewChecker(prog, cost.NewMeter(cost.Default()), Options{GCPeriod: 256})
		c.ProgramStart(&fakeExec{})
		c.ThreadStart(0)
		c.ThreadStart(1)
		var seq uint64
		write := func(th vm.ThreadID) {
			seq++
			c.Access(vm.Access{Thread: th, Obj: 0, Write: true, Class: vm.ClassField, Seq: seq})
		}
		round := func() {
			for i := 0; i < 512; i++ { // crosses the GC period twice per round
				write(vm.ThreadID(i % 2))
			}
		}
		for i := 0; i < 4; i++ {
			round() // warm up free lists, scratch buffers, engine slots
		}
		if n := testing.AllocsPerRun(10, round); n != 0 {
			t.Errorf("edge-insert round: %v allocs (512 accesses + 2 GCs), want 0", n)
		}
	})

	// Repeated-dependence path: the same cross-thread edge re-observed
	// (dedup hit) must not allocate either.
	t.Run("edge-dedup", func(t *testing.T) {
		c := NewChecker(prog, cost.NewMeter(cost.Default()), Options{GCPeriod: 1 << 30})
		c.ProgramStart(&fakeExec{})
		c.ThreadStart(0)
		c.ThreadStart(1)
		var seq uint64
		read := func(th vm.ThreadID, obj vm.ObjectID) {
			seq++
			c.Access(vm.Access{Thread: th, Obj: obj, Write: false, Class: vm.ClassField, Seq: seq})
		}
		read(0, 0) // RdEx_0
		read(1, 0) // upgrade to RdSh
		for i := 0; i < 64; i++ {
			read(0, 0)
			read(1, 0)
		}
		if n := testing.AllocsPerRun(200, func() { read(0, 0); read(1, 0) }); n != 0 {
			t.Errorf("dedup path: %v allocs/op, want 0", n)
		}
	})
}

// TestFirstRunAllocBudget is the allocation budget of a warmed multi-run
// first run (no logging, no SCC handoff): one sparse-multi program, hsqldb6
// at scale 2, under the workload's sticky scheduler. Everything a run
// allocates counts — VM, Octet, ICD, the transaction manager — divided by the
// transactions it creates. The warm-up runs the measured schedules once, so
// the arena each run hands the next already holds as many engine slots,
// transaction nodes and edges as a measured run needs. The arenas go through
// a stash, not the pool, so a garbage collection between two runs cannot
// empty it.
//
// Measured 19.6 bytes per transaction (the manager's transaction list, the
// scheduler's source, the VM's and Octet's per-run state); the budget leaves
// 2.5x headroom. Building the graph afresh every run costs about 400.
func TestFirstRunAllocBudget(t *testing.T) {
	const budget = 50 // bytes per transaction
	useArenas(t, &stash{keep: true})
	built, err := workloads.Build("hsqldb6", 2)
	if err != nil {
		t.Fatal(err)
	}
	sp := spec.Initial(built.Prog)
	if err := sp.ExcludeByName(built.InitialExclusions...); err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) uint64 {
		meter := cost.NewMeter(cost.Default())
		c := NewChecker(built.Prog, meter, Options{})
		exec := vm.NewExec(built.Prog, vm.Config{
			Sched: vm.NewSticky(seed, built.Stickiness), Inst: c, Atomic: sp.Atomic, Meter: meter,
		})
		if _, err := exec.Run(); err != nil {
			t.Fatal(err)
		}
		st := c.TxnStats()
		return st.RegularTxns + st.UnaryTxns
	}
	const schedules = 4
	for seed := int64(1); seed <= schedules; seed++ {
		run(seed)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var txns uint64
	for seed := int64(1); seed <= schedules; seed++ {
		txns += run(seed)
	}
	runtime.ReadMemStats(&after)
	perTxn := float64(after.TotalAlloc-before.TotalAlloc) / float64(txns)
	t.Logf("%.1f bytes per transaction over %d transactions", perTxn, txns)
	if perTxn > budget {
		t.Errorf("warmed first run allocates %.1f bytes per transaction, budget %d", perTxn, budget)
	}
}
