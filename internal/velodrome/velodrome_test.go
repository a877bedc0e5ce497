package velodrome

import (
	"testing"

	"doublechecker/internal/cost"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// buildRacyIncrement builds the canonical atomicity violation: two threads
// each run an atomic read-modify-write on a shared counter with no lock.
// The returned script interleaves them as rd0 rd1 wr1 wr0, which is not
// conflict serializable.
func buildRacyIncrement() (*vm.Program, []vm.ThreadID, func(vm.MethodID) bool) {
	b := vm.NewBuilder("racy-inc")
	o := b.Object()
	inc := b.Method("inc")
	inc.Read(o, 0).Write(o, 0)
	m0 := b.Method("main0")
	m0.Call(inc)
	m1 := b.Method("main1")
	m1.Call(inc)
	b.Thread(m0)
	b.Thread(m1)
	prog := b.MustBuild()
	incID := prog.MethodByName("inc").ID
	atomic := func(m vm.MethodID) bool { return m == incID }
	// Steps: t0 call, t1 call, t0 rd, t1 rd, t1 wr, t0 wr.
	script := []vm.ThreadID{0, 1, 0, 1, 1, 0}
	return prog, script, atomic
}

func runWith(t *testing.T, prog *vm.Program, sched vm.Scheduler, atomic func(vm.MethodID) bool, opts Options) *Checker {
	t.Helper()
	c := NewChecker(prog, nil, opts)
	_, err := vm.NewExec(prog, vm.Config{Sched: sched, Inst: c, Atomic: atomic}).Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return c
}

func TestDetectsRacyIncrementCycle(t *testing.T) {
	prog, script, atomic := buildRacyIncrement()
	c := runWith(t, prog, vm.NewScripted(script, true), atomic, Options{})
	if len(c.Violations()) == 0 {
		t.Fatal("expected a violation for the racy increment interleaving")
	}
	v := c.Violations()[0]
	if len(v.Cycle) != 2 {
		t.Errorf("cycle size = %d, want 2", len(v.Cycle))
	}
	incID := prog.MethodByName("inc").ID
	if len(v.BlamedMethods) != 1 || v.BlamedMethods[0] != incID {
		t.Errorf("blamed = %v, want [inc]", v.BlamedMethods)
	}
}

func TestSerializedIncrementNoViolation(t *testing.T) {
	// Same program, serial interleaving: t0 completes before t1 starts.
	prog, _, atomic := buildRacyIncrement()
	script := []vm.ThreadID{0, 0, 0, 1, 1, 1}
	c := runWith(t, prog, vm.NewScripted(script, false), atomic, Options{})
	if n := len(c.Violations()); n != 0 {
		t.Errorf("serial execution reported %d violations", n)
	}
}

func TestProperLockingNoViolation(t *testing.T) {
	b := vm.NewBuilder("locked-inc")
	lk := b.Object()
	o := b.Object()
	inc := b.Method("inc")
	inc.Acquire(lk).Read(o, 0).Write(o, 0).Release(lk)
	m0 := b.Method("main0")
	m0.CallN(inc, 20)
	m1 := b.Method("main1")
	m1.CallN(inc, 20)
	b.Thread(m0)
	b.Thread(m1)
	prog := b.MustBuild()
	incID := prog.MethodByName("inc").ID
	atomic := func(m vm.MethodID) bool { return m == incID }
	for seed := int64(0); seed < 8; seed++ {
		c := runWith(t, prog, vm.NewRandom(seed), atomic, Options{})
		if n := len(c.Violations()); n != 0 {
			t.Errorf("seed %d: locked increment reported %d violations", seed, n)
		}
	}
}

func TestLockReleaseInMiddleViolation(t *testing.T) {
	// An atomic method that releases and reacquires the lock around two
	// halves of an update is not serializable when another thread's full
	// update interleaves: detected via data dependences on the counter.
	b := vm.NewBuilder("split-lock")
	lk := b.Object()
	o := b.Object()
	split := b.Method("split")
	split.Acquire(lk).Read(o, 0).Release(lk).Acquire(lk).Write(o, 0).Release(lk)
	whole := b.Method("whole")
	whole.Acquire(lk).Read(o, 0).Write(o, 0).Release(lk)
	m0 := b.Method("main0")
	m0.Call(split)
	m1 := b.Method("main1")
	m1.Call(whole)
	b.Thread(m0)
	b.Thread(m1)
	prog := b.MustBuild()
	atomic := func(m vm.MethodID) bool {
		n := prog.Methods[m].Name
		return n == "split" || n == "whole"
	}
	// t0: call, acq, rd, rel; t1: call, acq, rd, wr, rel; t0: acq, wr, rel.
	script := []vm.ThreadID{0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0}
	c := runWith(t, prog, vm.NewScripted(script, true), atomic, Options{})
	if len(c.Violations()) == 0 {
		t.Fatal("split-lock interleaving must violate atomicity")
	}
	splitID := prog.MethodByName("split").ID
	found := false
	for _, v := range c.Violations() {
		for _, m := range v.BlamedMethods {
			if m == splitID {
				found = true
			}
		}
	}
	if !found {
		t.Error("split (the transaction completing the cycle) should be blamed")
	}
}

func TestUnaryTransactionInCycle(t *testing.T) {
	// t1's non-transactional write lands between t0's atomic read and
	// write: the cycle involves a unary transaction, and only the atomic
	// method can be blamed.
	b := vm.NewBuilder("unary-cycle")
	o := b.Object()
	atomicRW := b.Method("atomicRW")
	atomicRW.Read(o, 0).Write(o, 0)
	m0 := b.Method("main0")
	m0.Call(atomicRW)
	m1 := b.Method("main1")
	m1.Read(o, 0).Write(o, 0) // non-transactional
	b.Thread(m0)
	b.Thread(m1)
	prog := b.MustBuild()
	atomic := func(m vm.MethodID) bool { return prog.Methods[m].Name == "atomicRW" }
	script := []vm.ThreadID{0, 0, 1, 1, 0} // t0 call+rd, t1 rd+wr, t0 wr
	c := runWith(t, prog, vm.NewScripted(script, true), atomic, Options{})
	if len(c.Violations()) == 0 {
		t.Fatal("expected unary-involved violation")
	}
	v := c.Violations()[0]
	var sawUnary bool
	for _, tx := range v.Cycle {
		if tx.Unary {
			sawUnary = true
		}
	}
	if !sawUnary {
		t.Error("cycle should contain a unary transaction")
	}
	if len(v.BlamedMethods) != 1 || prog.Methods[v.BlamedMethods[0]].Name != "atomicRW" {
		t.Errorf("blamed methods = %v", v.BlamedMethods)
	}
}

func TestWriteReadDependenceEdge(t *testing.T) {
	b := vm.NewBuilder("wr-rd")
	o := b.Object()
	w := b.Method("w")
	w.Write(o, 0)
	r := b.Method("r")
	r.Read(o, 0)
	b.Thread(w)
	b.Thread(r)
	prog := b.MustBuild()
	script := []vm.ThreadID{0, 1}
	c := runWith(t, prog, vm.NewScripted(script, false), nil, Options{})
	if c.Stats().EdgesAdded == 0 {
		t.Error("write-read dependence should add an edge")
	}
	if len(c.Violations()) != 0 {
		t.Error("one-way dependence is not a cycle")
	}
}

func TestUnsoundVariantSameViolationsCheaper(t *testing.T) {
	// The unsound variant skips synchronization when the current
	// transaction is already the last reader/writer, so give each
	// transaction repeated accesses to the same field.
	b := vm.NewBuilder("racy-inc-repeat")
	o := b.Object()
	inc := b.Method("inc")
	inc.Read(o, 0).Read(o, 0).Read(o, 0).Write(o, 0).Write(o, 0)
	m0 := b.Method("main0")
	m0.Call(inc)
	m1 := b.Method("main1")
	m1.Call(inc)
	b.Thread(m0)
	b.Thread(m1)
	prog := b.MustBuild()
	incID := prog.MethodByName("inc").ID
	atomic := func(m vm.MethodID) bool { return m == incID }
	script := []vm.ThreadID{0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0}

	run := func(unsound bool) (int, cost.Units) {
		meter := cost.NewMeter(cost.Default())
		c := NewChecker(prog, meter, Options{Unsound: unsound})
		_, err := vm.NewExec(prog, vm.Config{
			Sched: vm.NewScripted(script, false), Inst: c, Atomic: atomic, Meter: meter,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if c.Stats().InstrumentedAccesses == 0 {
			t.Fatal("nothing instrumented")
		}
		if unsound && c.Stats().SyncFastSkips == 0 {
			t.Error("unsound variant should skip sync on repeated accesses")
		}
		return len(c.Violations()), meter.Total()
	}
	nSound, costSound := run(false)
	nUnsound, costUnsound := run(true)
	if nSound != nUnsound {
		t.Errorf("deterministic substrate: sound %d vs unsound %d violations", nSound, nUnsound)
	}
	if costUnsound >= costSound {
		t.Errorf("unsound variant should be cheaper: %d vs %d", costUnsound, costSound)
	}
}

func TestFilterSkipsUnmonitoredTransactions(t *testing.T) {
	prog, script, atomic := buildRacyIncrement()
	c := NewChecker(prog, nil, Options{Filter: &txn.Filter{}}) // selects nothing
	_, err := vm.NewExec(prog, vm.Config{
		Sched: vm.NewScripted(script, true), Inst: c, Atomic: atomic,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Violations()) != 0 {
		t.Error("empty filter must suppress all detection")
	}
	if c.Stats().InstrumentedAccesses != 0 {
		t.Errorf("instrumented %d accesses with empty filter", c.Stats().InstrumentedAccesses)
	}
}

func TestFilterSelectedMethodStillDetected(t *testing.T) {
	prog, script, atomic := buildRacyIncrement()
	incID := prog.MethodByName("inc").ID
	f := &txn.Filter{Methods: map[vm.MethodID]bool{incID: true}, Unary: true}
	c := NewChecker(prog, nil, Options{Filter: f})
	_, err := vm.NewExec(prog, vm.Config{
		Sched: vm.NewScripted(script, true), Inst: c, Atomic: atomic,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Violations()) == 0 {
		t.Error("selected method's violation must still be found")
	}
}

func TestArraysSkippedByDefault(t *testing.T) {
	b := vm.NewBuilder("arr")
	arr := b.Array(4)
	m0 := b.Method("m0")
	m0.ArrayWrite(arr, 0)
	m1 := b.Method("m1")
	m1.ArrayRead(arr, 0)
	b.Thread(m0)
	b.Thread(m1)
	prog := b.MustBuild()
	c := runWith(t, prog, vm.NewScripted([]vm.ThreadID{0, 1}, false), nil, Options{})
	// Only the 4 thread-handle sync accesses are instrumented.
	if got := c.Stats().InstrumentedAccesses; got != 4 {
		t.Errorf("instrumented = %d, want 4 (sync only)", got)
	}
}

func TestArrayConflationAddsEdges(t *testing.T) {
	b := vm.NewBuilder("arr2")
	arr := b.Array(4)
	m0 := b.Method("m0")
	m0.ArrayWrite(arr, 0)
	m1 := b.Method("m1")
	m1.ArrayRead(arr, 3) // different element; conflation still sees a dep
	b.Thread(m0)
	b.Thread(m1)
	prog := b.MustBuild()
	c := runWith(t, prog, vm.NewScripted([]vm.ThreadID{0, 1}, false), nil,
		Options{InstrumentArrays: true, DisableCycleDetection: true})
	if c.Stats().EdgesAdded == 0 {
		t.Error("conflated array metadata should produce an edge")
	}
	if c.Stats().CycleChecks != 0 {
		t.Error("cycle detection was disabled")
	}
}

func TestGCDoesNotBreakDetection(t *testing.T) {
	prog, script, atomic := buildRacyIncrement()
	c := NewChecker(prog, nil, Options{GCPeriod: 1})
	_, err := vm.NewExec(prog, vm.Config{
		Sched: vm.NewScripted(script, true), Inst: c, Atomic: atomic,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Violations()) == 0 {
		t.Error("violation must survive aggressive collection")
	}
}

func TestManyThreadsManyViolations(t *testing.T) {
	// Four threads hammer one counter atomically without locks under a
	// random scheduler: expect at least one violation across seeds.
	b := vm.NewBuilder("hammer")
	o := b.Object()
	inc := b.Method("inc")
	inc.Read(o, 0).Compute(3).Write(o, 0)
	mains := make([]*vm.MethodBuilder, 4)
	for i := range mains {
		mains[i] = b.Method("main" + string(rune('0'+i)))
		mains[i].CallN(inc, 10)
		b.Thread(mains[i])
	}
	prog := b.MustBuild()
	atomic := func(m vm.MethodID) bool { return prog.Methods[m].Name == "inc" }
	total := 0
	for seed := int64(0); seed < 5; seed++ {
		c := runWith(t, prog, vm.NewRandom(seed), atomic, Options{})
		total += len(c.Violations())
	}
	if total == 0 {
		t.Error("racy hammering should produce violations under some seed")
	}
}

func TestStatsPopulated(t *testing.T) {
	prog, script, atomic := buildRacyIncrement()
	// ProgramStart builds the run's transaction manager; before it there is
	// nothing to count.
	if s := NewChecker(prog, nil, Options{}).TxnStats(); s != (txn.Stats{}) {
		t.Errorf("TxnStats before ProgramStart = %+v, want zero", s)
	}
	c := runWith(t, prog, vm.NewScripted(script, true), atomic, Options{})
	st := c.Stats()
	if st.InstrumentedAccesses == 0 || st.EdgesAdded == 0 || st.CycleChecks == 0 {
		t.Errorf("stats look empty: %+v", st)
	}
	if c.TxnStats().RegularTxns != 2 {
		t.Errorf("regular txns = %d, want 2", c.TxnStats().RegularTxns)
	}
}
