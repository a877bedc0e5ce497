package vm

import (
	"strings"
	"testing"
)

func TestMultiInstFansOut(t *testing.T) {
	r1 := &recorder{}
	r2 := &recorder{}
	b := NewBuilder("p")
	o := b.Object()
	m := b.Method("main")
	m.Write(o, 0)
	b.Thread(m)
	prog := b.MustBuild()
	_, err := NewExec(prog, Config{
		Inst:   MultiInst{r1, r2},
		Atomic: func(MethodID) bool { return true },
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.events) == 0 || len(r1.events) != len(r2.events) {
		t.Errorf("fan-out mismatch: %d vs %d events", len(r1.events), len(r2.events))
	}
	for i := range r1.events {
		if r1.events[i] != r2.events[i] {
			t.Fatalf("event %d differs: %q vs %q", i, r1.events[i], r2.events[i])
		}
	}
	if !r1.has("txbegin t0 m0") {
		t.Errorf("tx events missing: %v", r1.events)
	}
}

func TestNopInstSatisfiesInterface(t *testing.T) {
	var inst Instrumentation = NopInst{}
	inst.ProgramStart(nil)
	inst.ThreadStart(0)
	inst.ThreadExit(0)
	inst.TxBegin(0, 0)
	inst.TxEnd(0, 0)
	inst.Access(Access{})
	inst.ProgramEnd()
}

func TestAccessStringAndClassString(t *testing.T) {
	a := Access{Thread: 1, Obj: 2, Field: 3, Write: true, Class: ClassSync, Seq: 9}
	s := a.String()
	for _, want := range []string{"t1", "wr", "o2.3", "sync", "seq 9"} {
		if !strings.Contains(s, want) {
			t.Errorf("%q missing %q", s, want)
		}
	}
	if ClassField.String() != "field" || ClassArray.String() != "array" {
		t.Error("class strings")
	}
	if AccessClass(99).String() == "" {
		t.Error("unknown class should still render")
	}
	if OpKind(200).String() == "" {
		t.Error("unknown op kind should still render")
	}
}

func TestBuilderAccessors(t *testing.T) {
	b := NewBuilder("p")
	ids := b.Objects(3)
	if len(ids) != 3 || ids[2] != 2 {
		t.Errorf("Objects: %v", ids)
	}
	m := b.Method("work")
	if m.Name() != "work" || m.ID() != 0 {
		t.Errorf("accessors: %q %d", m.Name(), m.ID())
	}
	m.Read(ids[0], 0)
	b.Thread(m)
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestMustBuildPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild should panic on invalid program")
		}
	}()
	b := NewBuilder("bad") // no threads
	b.Method("m")
	b.MustBuild()
}

// TestNotifyPermitBanked: a notify with no waiter is banked; a later wait
// consumes it without blocking, so notify-before-wait terminates under the
// round-robin schedule that would otherwise deadlock.
func TestNotifyPermitBanked(t *testing.T) {
	b := NewBuilder("p")
	mon := b.Object()
	o := b.Object()
	notifier := b.Method("notifier")
	notifier.Acquire(mon).Notify(mon).Release(mon).Write(o, 0)
	waiter := b.Method("waiter")
	waiter.Compute(20).Acquire(mon).Wait(mon).Release(mon).Write(o, 1)
	b.Thread(notifier)
	b.Thread(waiter)
	st, err := NewExec(b.MustBuild(), Config{Sched: NewRoundRobin()}).Run()
	if err != nil {
		t.Fatalf("banked notify should prevent deadlock: %v", err)
	}
	if st.Waits != 1 || st.Notifies != 1 {
		t.Errorf("waits=%d notifies=%d", st.Waits, st.Notifies)
	}
}

// TestNotifyAllNotBanked: notifyAll with no waiters is a no-op; the waiter
// then blocks forever and the executor reports deadlock.
func TestNotifyAllNotBanked(t *testing.T) {
	b := NewBuilder("p")
	mon := b.Object()
	notifier := b.Method("notifier")
	notifier.Acquire(mon).NotifyAll(mon).Release(mon)
	waiter := b.Method("waiter")
	waiter.Compute(20).Acquire(mon).Wait(mon).Release(mon)
	b.Thread(notifier)
	b.Thread(waiter)
	_, err := NewExec(b.MustBuild(), Config{Sched: NewRoundRobin()}).Run()
	if err == nil {
		t.Error("expected deadlock: notifyAll must not bank permits")
	}
}

// TestPermitAccountingMultiple: two banked notifies satisfy two waits.
func TestPermitAccountingMultiple(t *testing.T) {
	b := NewBuilder("p")
	mon := b.Object()
	notifier := b.Method("notifier")
	notifier.Acquire(mon).Notify(mon).Notify(mon).Release(mon)
	waiter := b.Method("waiter")
	waiter.Compute(10).Acquire(mon).Wait(mon).Wait(mon).Release(mon)
	b.Thread(notifier)
	b.Thread(waiter)
	if _, err := NewExec(b.MustBuild(), Config{Sched: NewRoundRobin()}).Run(); err != nil {
		t.Fatalf("two permits should satisfy two waits: %v", err)
	}
}

// probeCtx records executor context queries at every access.
type probeCtx struct {
	NopInst
	e      *Exec
	inTx   []bool
	txMeth []MethodID
}

func (p *probeCtx) ProgramStart(e ExecView) { p.e = e.(*Exec) }
func (p *probeCtx) Access(Access) {
	p.inTx = append(p.inTx, p.e.InTx(0))
	p.txMeth = append(p.txMeth, p.e.TxMethod(0))
}

func TestExecContextQueries(t *testing.T) {
	b := NewBuilder("p")
	o := b.Object()
	atomicM := b.Method("atomicM")
	atomicM.Write(o, 0)
	m := b.Method("main")
	m.Read(o, 1).Call(atomicM).Read(o, 2)
	b.Thread(m)
	prog := b.MustBuild()
	atomicID := prog.MethodByName("atomicM").ID
	p := &probeCtx{}
	_, err := NewExec(prog, Config{
		Inst:   p,
		Atomic: func(id MethodID) bool { return id == atomicID },
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Accesses on thread 0: start handle read (not in tx), rd o.1 (not),
	// wr o.0 (in atomicM), rd o.2 (not), exit handle write (not).
	wantInTx := []bool{false, false, true, false, false}
	if len(p.inTx) != len(wantInTx) {
		t.Fatalf("%d accesses, want %d", len(p.inTx), len(wantInTx))
	}
	for i, want := range wantInTx {
		if p.inTx[i] != want {
			t.Errorf("access %d: inTx=%v want %v", i, p.inTx[i], want)
		}
	}
	if p.txMeth[2] != atomicID {
		t.Errorf("txMethod during atomic access = %d", p.txMeth[2])
	}
	if p.txMeth[1] != NoMethod {
		t.Errorf("txMethod outside tx = %d, want NoMethod", p.txMeth[1])
	}
}

func TestStatsString(t *testing.T) {
	s := &Stats{Steps: 3, FieldAccesses: 2}
	if !strings.Contains(s.String(), "steps=3") {
		t.Errorf("stats string: %q", s.String())
	}
	if s.TotalAccesses() != 2 {
		t.Errorf("total accesses: %d", s.TotalAccesses())
	}
}

func TestProgramHelpers(t *testing.T) {
	b := NewBuilder("p")
	arr := b.Array(4)
	obj := b.Object()
	m := b.Method("main")
	m.ArrayRead(arr, 0).Read(obj, 0)
	b.Thread(m)
	prog := b.MustBuild()
	if !prog.IsArray(arr) || prog.IsArray(obj) {
		t.Error("IsArray")
	}
	if prog.TotalObjects() != 2+1 { // two objects + one thread handle
		t.Errorf("TotalObjects = %d", prog.TotalObjects())
	}
	if prog.MethodName(NoMethod) != "<unary>" {
		t.Error("MethodName(NoMethod)")
	}
	if prog.MethodByName("nope") != nil {
		t.Error("MethodByName miss")
	}
}
