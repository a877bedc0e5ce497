package vm

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"doublechecker/internal/cost"
)

// recorder captures the event stream for assertions.
type recorder struct {
	NopInst
	events   []string
	accesses []Access
}

func (r *recorder) ThreadStart(t ThreadID) { r.events = append(r.events, fmt.Sprintf("start t%d", t)) }
func (r *recorder) ThreadExit(t ThreadID)  { r.events = append(r.events, fmt.Sprintf("exit t%d", t)) }
func (r *recorder) TxBegin(t ThreadID, m MethodID) {
	r.events = append(r.events, fmt.Sprintf("txbegin t%d m%d", t, m))
}
func (r *recorder) TxEnd(t ThreadID, m MethodID) {
	r.events = append(r.events, fmt.Sprintf("txend t%d m%d", t, m))
}
func (r *recorder) Access(a Access) {
	r.accesses = append(r.accesses, a)
	rw := "rd"
	if a.Write {
		rw = "wr"
	}
	r.events = append(r.events, fmt.Sprintf("%s t%d o%d.%d %s", rw, a.Thread, a.Obj, a.Field, a.Class))
}

func (r *recorder) has(sub string) bool {
	for _, e := range r.events {
		if e == sub {
			return true
		}
	}
	return false
}

func run(t *testing.T, p *Program, cfg Config) (*Stats, *recorder) {
	t.Helper()
	rec := &recorder{}
	if cfg.Inst != nil {
		cfg.Inst = MultiInst{cfg.Inst, rec}
	} else {
		cfg.Inst = rec
	}
	st, err := NewExec(p, cfg).Run()
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return st, rec
}

func TestSingleThreadReadsWrites(t *testing.T) {
	b := NewBuilder("p")
	o := b.Object()
	m := b.Method("main")
	m.Read(o, 0).Write(o, 1).Read(o, 2)
	b.Thread(m)
	st, rec := run(t, b.MustBuild(), Config{})
	if st.FieldAccesses != 3 {
		t.Errorf("field accesses = %d, want 3", st.FieldAccesses)
	}
	if !rec.has("rd t0 o0.0 field") || !rec.has("wr t0 o0.1 field") {
		t.Errorf("missing expected accesses: %v", rec.events)
	}
}

func TestSeqStrictlyIncreasing(t *testing.T) {
	b := NewBuilder("p")
	o := b.Object()
	m := b.Method("main")
	for i := 0; i < 20; i++ {
		m.Write(o, FieldID(i))
	}
	b.Thread(m)
	_, rec := run(t, b.MustBuild(), Config{})
	var last uint64
	for _, a := range rec.accesses {
		if a.Seq <= last {
			t.Fatalf("seq not strictly increasing: %d after %d", a.Seq, last)
		}
		last = a.Seq
	}
}

func TestLockMutualExclusionAndEvents(t *testing.T) {
	b := NewBuilder("p")
	lk := b.Object()
	o := b.Object()
	work := b.Method("work")
	work.Acquire(lk).Read(o, 0).Write(o, 0).Release(lk)
	m0 := b.Method("m0")
	m0.CallN(work, 5)
	m1 := b.Method("m1")
	m1.CallN(work, 5)
	b.Thread(m0)
	b.Thread(m1)
	st, rec := run(t, b.MustBuild(), Config{Sched: NewRandom(7)})
	if st.SyncAccesses < 20 { // 10 acquires + 10 releases (+ thread handles)
		t.Errorf("sync accesses = %d, want >= 20", st.SyncAccesses)
	}
	if !rec.has("rd t0 o0.0 sync") || !rec.has("wr t1 o0.0 sync") {
		t.Errorf("acquire should read, release should write: %v", rec.events[:10])
	}
}

func TestLockBlocksAndUnblocks(t *testing.T) {
	// t0 holds the lock while t1 tries to take it; under round-robin t1
	// must block at least once.
	b := NewBuilder("p")
	lk := b.Object()
	o := b.Object()
	m0 := b.Method("m0")
	m0.Acquire(lk).Compute(1).Compute(1).Compute(1).Write(o, 0).Release(lk)
	m1 := b.Method("m1")
	m1.Acquire(lk).Write(o, 0).Release(lk)
	b.Thread(m0)
	b.Thread(m1)
	st, _ := run(t, b.MustBuild(), Config{Sched: NewRoundRobin()})
	if st.BlockEvents == 0 {
		t.Error("t1 should have blocked on the lock at least once")
	}
}

func TestReentrantLock(t *testing.T) {
	b := NewBuilder("p")
	lk := b.Object()
	o := b.Object()
	m := b.Method("main")
	m.Acquire(lk).Acquire(lk).Write(o, 0).Release(lk).Release(lk)
	b.Thread(m)
	if st, _ := run(t, b.MustBuild(), Config{}); st.FieldAccesses != 1 {
		t.Error("reentrant acquire should not deadlock")
	}
}

func TestReleaseWithoutOwnershipErrors(t *testing.T) {
	b := NewBuilder("p")
	lk := b.Object()
	m := b.Method("main")
	m.Release(lk)
	b.Thread(m)
	_, err := NewExec(b.MustBuild(), Config{}).Run()
	if err == nil || !strings.Contains(err.Error(), "without owning") {
		t.Errorf("expected ownership error, got %v", err)
	}
}

func TestWaitWithoutOwnershipErrors(t *testing.T) {
	b := NewBuilder("p")
	lk := b.Object()
	m := b.Method("main")
	m.Wait(lk)
	b.Thread(m)
	if _, err := NewExec(b.MustBuild(), Config{}).Run(); err == nil {
		t.Error("expected wait-without-lock error")
	}
}

func TestDeadlockDetected(t *testing.T) {
	// Classic ABBA deadlock, forced by round-robin.
	b := NewBuilder("p")
	a := b.Object()
	c := b.Object()
	m0 := b.Method("m0")
	m0.Acquire(a).Compute(1).Acquire(c).Release(c).Release(a)
	m1 := b.Method("m1")
	m1.Acquire(c).Compute(1).Acquire(a).Release(a).Release(c)
	b.Thread(m0)
	b.Thread(m1)
	_, err := NewExec(b.MustBuild(), Config{Sched: NewRoundRobin()}).Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("expected ErrDeadlock, got %v", err)
	}
}

func TestWaitNotifyHandshake(t *testing.T) {
	// t1 waits on the monitor; t0 notifies. Under round-robin this is a
	// deterministic handshake; the program must terminate with both field
	// writes done.
	b := NewBuilder("p")
	mon := b.Object()
	o := b.Object()
	waiter := b.Method("waiter")
	waiter.Acquire(mon).Wait(mon).Write(o, 0).Release(mon)
	notifier := b.Method("notifier")
	notifier.Compute(5).Compute(5).Acquire(mon).Notify(mon).Release(mon).Write(o, 1)
	b.Thread(waiter)
	b.Thread(notifier)
	st, rec := run(t, b.MustBuild(), Config{Sched: NewRoundRobin()})
	if st.Waits != 1 || st.Notifies != 1 {
		t.Errorf("waits=%d notifies=%d, want 1/1", st.Waits, st.Notifies)
	}
	if !rec.has("wr t0 o1.0 field") {
		t.Error("waiter should have run after notify")
	}
}

func TestNotifyAllWakesEveryone(t *testing.T) {
	b := NewBuilder("p")
	mon := b.Object()
	o := b.Object()
	waiter := b.Method("waiter")
	waiter.Acquire(mon).Wait(mon).Write(o, 0).Release(mon)
	waiter2 := b.Method("waiter2")
	waiter2.Acquire(mon).Wait(mon).Write(o, 1).Release(mon)
	notifier := b.Method("notifier")
	for i := 0; i < 10; i++ {
		notifier.Compute(1)
	}
	notifier.Acquire(mon).NotifyAll(mon).Release(mon)
	b.Thread(waiter)
	b.Thread(waiter2)
	b.Thread(notifier)
	st, _ := run(t, b.MustBuild(), Config{Sched: NewRoundRobin()})
	if st.Waits != 2 {
		t.Errorf("waits = %d, want 2", st.Waits)
	}
}

func TestForkJoin(t *testing.T) {
	b := NewBuilder("p")
	o := b.Object()
	child := b.Method("child")
	child.Write(o, 0)
	childT := b.ForkedThread(child)
	m := b.Method("main")
	m.Fork(childT).Join(childT).Read(o, 0)
	b.Thread(m)
	st, rec := run(t, b.MustBuild(), Config{Sched: NewRoundRobin()})
	if st.Forks != 1 {
		t.Errorf("forks = %d, want 1", st.Forks)
	}
	// Handle object of the child is object NumObjects + child.
	handle := b.MustBuild().ThreadObject(childT)
	if !rec.has(fmt.Sprintf("wr t0 o%d.0 sync", handle)) {
		t.Error("fork should write the child's handle object")
	}
	if !rec.has(fmt.Sprintf("rd t1 o%d.0 sync", handle)) {
		t.Error("child start should read its handle object")
	}
	if !rec.has(fmt.Sprintf("wr t1 o%d.0 sync", handle)) {
		t.Error("child exit should write its handle object")
	}
}

func TestForkTwiceErrors(t *testing.T) {
	b := NewBuilder("p")
	child := b.Method("child")
	child.Compute(1)
	ct := b.ForkedThread(child)
	m := b.Method("main")
	m.Fork(ct).Fork(ct)
	b.Thread(m)
	if _, err := NewExec(b.MustBuild(), Config{}).Run(); err == nil {
		t.Error("expected double-fork error")
	}
}

func TestTransactionDemarcation(t *testing.T) {
	b := NewBuilder("p")
	o := b.Object()
	inner := b.Method("inner") // atomic, nested: must flatten
	inner.Write(o, 1)
	outer := b.Method("outer") // atomic
	outer.Read(o, 0).Call(inner).Read(o, 2)
	plain := b.Method("plain") // not atomic
	plain.Write(o, 3)
	m := b.Method("main")
	m.Call(outer).Call(plain)
	b.Thread(m)
	atomic := map[string]bool{"outer": true, "inner": true}
	prog := b.MustBuild()
	isAtomic := func(id MethodID) bool { return atomic[prog.Methods[id].Name] }
	st, rec := run(t, prog, Config{Atomic: isAtomic})
	if st.RegularTx != 1 {
		t.Errorf("regular transactions = %d, want 1 (nested atomic flattens)", st.RegularTx)
	}
	outerID := prog.MethodByName("outer").ID
	if !rec.has(fmt.Sprintf("txbegin t0 m%d", outerID)) {
		t.Errorf("missing txbegin for outer: %v", rec.events)
	}
	// txend must come after the accesses of inner and outer, before plain's.
	idxEnd, idxPlain := -1, -1
	for i, ev := range rec.events {
		if strings.HasPrefix(ev, "txend") {
			idxEnd = i
		}
		if ev == "wr t0 o0.3 field" {
			idxPlain = i
		}
	}
	if idxEnd == -1 || idxPlain == -1 || idxEnd > idxPlain {
		t.Errorf("txend (%d) should precede plain write (%d): %v", idxEnd, idxPlain, rec.events)
	}
}

func TestAtomicEntryMethodIsTransaction(t *testing.T) {
	b := NewBuilder("p")
	o := b.Object()
	m := b.Method("main")
	m.Write(o, 0)
	b.Thread(m)
	prog := b.MustBuild()
	st, rec := run(t, prog, Config{Atomic: func(MethodID) bool { return true }})
	if st.RegularTx != 1 {
		t.Errorf("regular transactions = %d, want 1", st.RegularTx)
	}
	if !rec.has("txbegin t0 m0") || !rec.has("txend t0 m0") {
		t.Errorf("entry transaction events missing: %v", rec.events)
	}
}

func TestNonAtomicCalleeInheritsContext(t *testing.T) {
	// plain is called from atomic outer: its access is inside the
	// transaction (no txend until outer returns).
	b := NewBuilder("p")
	o := b.Object()
	plain := b.Method("plain")
	plain.Write(o, 0)
	outer := b.Method("outer")
	outer.Call(plain)
	m := b.Method("main")
	m.Call(outer)
	b.Thread(m)
	prog := b.MustBuild()
	atomicOuter := func(id MethodID) bool { return prog.Methods[id].Name == "outer" }
	_, rec := run(t, prog, Config{Atomic: atomicOuter})
	iTxEnd, iWr := -1, -1
	for i, ev := range rec.events {
		if strings.HasPrefix(ev, "txend") {
			iTxEnd = i
		}
		if ev == "wr t0 o0.0 field" {
			iWr = i
		}
	}
	if iWr == -1 || iTxEnd == -1 || iWr > iTxEnd {
		t.Errorf("plain's write (%d) must fall inside the transaction (txend %d)", iWr, iTxEnd)
	}
}

func TestArrayAccessClass(t *testing.T) {
	b := NewBuilder("p")
	arr := b.Array(8)
	m := b.Method("main")
	m.ArrayWrite(arr, 3).ArrayRead(arr, 3)
	b.Thread(m)
	st, rec := run(t, b.MustBuild(), Config{})
	if st.ArrayAccesses != 2 {
		t.Errorf("array accesses = %d, want 2", st.ArrayAccesses)
	}
	if !rec.has("wr t0 o0.3 array") {
		t.Errorf("array write event missing: %v", rec.events)
	}
}

func TestComputeChargesMeter(t *testing.T) {
	model := cost.Default()
	meter := cost.NewMeter(model)
	b := NewBuilder("p")
	m := b.Method("main")
	m.Compute(100)
	b.Thread(m)
	if _, err := NewExec(b.MustBuild(), Config{Meter: meter}).Run(); err != nil {
		t.Fatal(err)
	}
	want := model.BaseOp + 100*model.ComputeUnit
	if meter.Total() != want {
		t.Errorf("meter total = %d, want %d", meter.Total(), want)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	prog := contentedProgram()
	tr1 := trace(t, prog, 42)
	tr2 := trace(t, prog, 42)
	if !reflect.DeepEqual(tr1, tr2) {
		t.Error("same seed must produce identical access traces")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	prog := contentedProgram()
	tr1 := trace(t, prog, 1)
	var differ bool
	for s := int64(2); s < 10; s++ {
		if !reflect.DeepEqual(tr1, trace(t, prog, s)) {
			differ = true
			break
		}
	}
	if !differ {
		t.Error("expected at least one different interleaving across seeds")
	}
}

func trace(t *testing.T, p *Program, seed int64) []Access {
	t.Helper()
	rec := &recorder{}
	if _, err := NewExec(p, Config{Sched: NewRandom(seed), Inst: rec}).Run(); err != nil {
		t.Fatal(err)
	}
	return rec.accesses
}

func contentedProgram() *Program {
	b := NewBuilder("contended")
	lk := b.Object()
	o := b.Object()
	work := b.Method("work")
	work.Acquire(lk).Read(o, 0).Write(o, 0).Release(lk).Read(o, 1).Write(o, 1)
	m0 := b.Method("m0")
	m0.CallN(work, 10)
	m1 := b.Method("m1")
	m1.CallN(work, 10)
	b.Thread(m0)
	b.Thread(m1)
	return b.MustBuild()
}

func TestStepLimit(t *testing.T) {
	b := NewBuilder("p")
	m := b.Method("main")
	for i := 0; i < 100; i++ {
		m.Compute(1)
	}
	b.Thread(m)
	_, err := NewExec(b.MustBuild(), Config{MaxSteps: 10}).Run()
	if !errors.Is(err, ErrStepLimit) {
		t.Errorf("expected ErrStepLimit, got %v", err)
	}
}

func TestCallDepthLimit(t *testing.T) {
	b := NewBuilder("p")
	rec := b.Method("rec")
	rec.Call(rec) // infinite recursion
	m := b.Method("main")
	m.Call(rec)
	b.Thread(m)
	_, err := NewExec(b.MustBuild(), Config{MaxCallDepth: 50}).Run()
	if err == nil || !strings.Contains(err.Error(), "call depth") {
		t.Errorf("expected call depth error, got %v", err)
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	cases := []struct {
		name string
		prog *Program
	}{
		{"no threads", &Program{Name: "x", Methods: []*Method{{ID: 0, Name: "m"}}}},
		{"bad entry", &Program{Name: "x",
			Methods: []*Method{{ID: 0, Name: "m"}},
			Threads: []ThreadDecl{{ID: 0, Entry: 9, AutoStart: true}}}},
		{"object range", &Program{Name: "x",
			Methods: []*Method{{ID: 0, Name: "m", Body: []Op{{Kind: OpRead, Obj: 5}}}},
			Threads: []ThreadDecl{{ID: 0, Entry: 0, AutoStart: true}}}},
		{"negative objects", &Program{Name: "x", NumObjects: -5,
			Methods: []*Method{{ID: 0, Name: "m"}},
			Threads: []ThreadDecl{{ID: 0, Entry: 0, AutoStart: true}}}},
		// One thread's handle object takes the ID after the last object,
		// which here is past int32.
		{"objects past int32", &Program{Name: "x", NumObjects: math.MaxInt32,
			Methods: []*Method{{ID: 0, Name: "m"}},
			Threads: []ThreadDecl{{ID: 0, Entry: 0, AutoStart: true}}}},
		{"dup method", &Program{Name: "x", NumObjects: 1,
			Methods: []*Method{{ID: 0, Name: "m"}, {ID: 1, Name: "m"}},
			Threads: []ThreadDecl{{ID: 0, Entry: 0, AutoStart: true}}}},
		{"fork autostart", &Program{Name: "x", NumObjects: 1,
			Methods: []*Method{{ID: 0, Name: "m", Body: []Op{{Kind: OpFork, Target: 0}}}},
			Threads: []ThreadDecl{{ID: 0, Entry: 0, AutoStart: true}}}},
		{"array bounds", func() *Program {
			b := NewBuilder("x")
			arr := b.Array(2)
			m := b.Method("m")
			m.Op(Op{Kind: OpArrayRead, Obj: arr, Field: 5})
			b.Thread(m)
			p := &Program{Name: "x", Methods: []*Method{m.m}, Threads: []ThreadDecl{{ID: 0, Entry: 0, AutoStart: true}}, NumObjects: 1, ArrayLens: map[ObjectID]int{arr: 2}}
			return p
		}()},
	}
	for _, c := range cases {
		if err := c.prog.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestSchedulers(t *testing.T) {
	runnable := []ThreadID{0, 2, 5}
	rr := NewRoundRobin()
	got := []ThreadID{rr.Next(runnable, 0), rr.Next(runnable, 1), rr.Next(runnable, 2), rr.Next(runnable, 3)}
	want := []ThreadID{0, 2, 5, 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round robin = %v, want %v", got, want)
	}

	r := NewRandom(1)
	for i := 0; i < 100; i++ {
		n := r.Next(runnable, uint64(i))
		if n != 0 && n != 2 && n != 5 {
			t.Fatalf("random scheduler returned non-runnable %d", n)
		}
	}

	sticky := NewSticky(1, 0.1)
	same := 0
	prev := sticky.Next(runnable, 0)
	for i := 1; i < 100; i++ {
		n := sticky.Next(runnable, uint64(i))
		if n == prev {
			same++
		}
		prev = n
	}
	if same < 50 {
		t.Errorf("sticky scheduler switched too often: only %d repeats", same)
	}

	sc := NewScripted([]ThreadID{5, 0}, true)
	if sc.Next(runnable, 0) != 5 || sc.Next(runnable, 1) != 0 {
		t.Error("scripted scheduler did not follow script")
	}
	// Exhausted script falls back to round robin.
	if n := sc.Next(runnable, 2); n != 0 && n != 2 && n != 5 {
		t.Errorf("fallback returned non-runnable %d", n)
	}
}

func TestScriptedStrictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("strict scripted scheduler should panic on non-runnable choice")
		}
	}()
	NewScripted([]ThreadID{9}, true).Next([]ThreadID{0}, 0)
}

func TestBlockedQuery(t *testing.T) {
	b := NewBuilder("p")
	lk := b.Object()
	m0 := b.Method("m0")
	m0.Acquire(lk).Compute(1).Release(lk)
	m1 := b.Method("m1")
	m1.Acquire(lk).Release(lk)
	b.Thread(m0)
	b.Thread(m1)
	prog := b.MustBuild()

	var sawBlocked bool
	probe := &probeInst{check: func(e *Exec) {
		if e.Blocked(1) {
			sawBlocked = true
		}
	}}
	if _, err := NewExec(prog, Config{Sched: NewRoundRobin(), Inst: probe}).Run(); err != nil {
		t.Fatal(err)
	}
	if !sawBlocked {
		t.Error("t1 should have been observed blocked")
	}
}

type probeInst struct {
	NopInst
	e     *Exec
	check func(*Exec)
}

func (p *probeInst) ProgramStart(e ExecView) { p.e = e.(*Exec) }
func (p *probeInst) Access(Access)           { p.check(p.e) }

func TestOpStrings(t *testing.T) {
	ops := []Op{
		{Kind: OpRead, Obj: 1, Field: 2},
		{Kind: OpAcquire, Obj: 3},
		{Kind: OpCall, Target: 4},
		{Kind: OpFork, Target: 5},
		{Kind: OpCompute, Target: 6},
	}
	for _, op := range ops {
		if op.String() == "" {
			t.Errorf("empty string for %v", op.Kind)
		}
	}
}
