package vm

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"doublechecker/internal/cost"
)

// Executor errors.
var (
	// ErrDeadlock is returned when no thread is runnable but threads remain.
	ErrDeadlock = errors.New("vm: deadlock: no runnable threads")
	// ErrStepLimit is returned when execution exceeds Config.MaxSteps.
	ErrStepLimit = errors.New("vm: step limit exceeded")
)

// Config configures an execution.
type Config struct {
	// Sched chooses the interleaving. Defaults to NewRandom(1).
	Sched Scheduler
	// Inst receives the event stream; nil means uninstrumented.
	Inst Instrumentation
	// Atomic reports whether a method is in the atomicity specification
	// (i.e. expected to execute atomically). nil means no method is atomic:
	// every access runs in a unary transaction.
	Atomic func(MethodID) bool
	// Meter, if non-nil, is charged the program's base execution cost.
	// Checkers attached via Inst charge the same meter.
	Meter *cost.Meter
	// MaxSteps bounds execution; 0 means the default (100M).
	MaxSteps uint64
	// MaxCallDepth bounds recursion; 0 means the default (1024).
	MaxCallDepth int
}

// thread run states.
type tstate uint8

const (
	tsNotStarted tstate = iota
	tsRunnable
	tsBlockedLock // trying to acquire blockOn (possibly a wait-reacquire)
	tsBlockedJoin // waiting for thread blockJoin to exit
	tsWaiting     // in the wait set of blockOn
	tsDone
)

type frame struct {
	m             *Method
	pc            int
	atomicEntered bool // this frame began or nested an atomic region
}

type thread struct {
	id          ThreadID
	state       tstate
	frames      []frame
	blockOn     ObjectID
	blockJoin   ThreadID
	savedRec    int32 // monitor recursion to restore after wait
	reacquiring bool  // current op is a wait resuming via reacquisition
	txDepth     int   // nesting depth of atomic frames
	txMethod    MethodID
}

type monitor struct {
	owner   ThreadID // -1 when free
	rec     int32
	waitSet []ThreadID // FIFO wait set (OpWait)
	permits int32      // banked notifies (see OpWait/OpNotify semantics)
}

// Exec runs one program under one configuration. Construct with NewExec and
// drive with Run; an Exec is single-use.
type Exec struct {
	prog    *Program
	cfg     Config
	inst    Instrumentation
	threads []*thread
	// mons holds the monitors by ObjectID, grown on first use. A *monitor
	// into it is valid only until the next mon call.
	mons  []monitor
	step  uint64
	seq   uint64
	stats Stats
	model cost.Model // the meter's prices, read once
	// runnable holds the runnable threads in ID order; setState keeps it
	// current, so no step rescans the threads.
	runnable []ThreadID
}

var _ ExecView = (*Exec)(nil)

// NewExec prepares an execution of prog.
func NewExec(prog *Program, cfg Config) *Exec {
	if cfg.Sched == nil {
		cfg.Sched = NewRandom(1)
	}
	if cfg.Inst == nil {
		cfg.Inst = NopInst{}
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 100_000_000
	}
	if cfg.MaxCallDepth == 0 {
		cfg.MaxCallDepth = 1024
	}
	e := &Exec{prog: prog, cfg: cfg, inst: cfg.Inst, model: cfg.Meter.Model()}
	for _, td := range prog.Threads {
		e.threads = append(e.threads, &thread{id: td.ID, state: tsNotStarted, txMethod: NoMethod})
	}
	return e
}

// Now returns the global access clock: the Seq of the most recent Access
// event. Checkers stamp transaction boundaries with it, so those stamps are
// directly comparable with Access.Seq values.
func (e *Exec) Now() uint64 { return e.seq }

// Blocked reports whether thread t is currently blocked (waiting for a
// monitor, a join, or a notification) or not running at all. Octet's
// coordination protocol consults this to choose the implicit protocol.
func (e *Exec) Blocked(t ThreadID) bool {
	switch e.threads[t].state {
	case tsRunnable:
		return false
	default:
		return true
	}
}

// InTx reports whether thread t is inside a regular transaction.
func (e *Exec) InTx(t ThreadID) bool { return e.threads[t].txDepth > 0 }

// TxMethod returns the method that began t's current regular transaction,
// or NoMethod.
func (e *Exec) TxMethod(t ThreadID) MethodID {
	if e.threads[t].txDepth == 0 {
		return NoMethod
	}
	return e.threads[t].txMethod
}

// ctxCheckMask controls how often RunContext polls its context: every
// (ctxCheckMask+1) steps, keeping the hot loop nearly free of context
// overhead while still bounding cancellation latency.
const ctxCheckMask = 255

// Run executes the program to completion and returns execution statistics.
func (e *Exec) Run() (*Stats, error) { return e.RunContext(context.Background()) }

// RunContext is Run under a context: cancellation or an expired deadline
// aborts the execution within ctxCheckMask+1 steps, surfacing the context's
// error (errors.Is sees context.Canceled / context.DeadlineExceeded).
func (e *Exec) RunContext(ctx context.Context) (*Stats, error) {
	if err := ctx.Err(); err != nil {
		return &e.stats, fmt.Errorf("vm: aborted before start: %w", err)
	}
	e.inst.ProgramStart(e)
	for _, td := range e.prog.Threads {
		if td.AutoStart {
			if err := e.startThread(td.ID); err != nil {
				return &e.stats, err
			}
		}
	}
	for {
		if e.step&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return &e.stats, fmt.Errorf("vm: aborted at step %d: %w", e.step, err)
			}
		}
		run := e.runnable
		if len(run) == 0 {
			if e.allDone() {
				break
			}
			return &e.stats, fmt.Errorf("%w (%s)", ErrDeadlock, e.describeBlocked())
		}
		t := e.cfg.Sched.Next(run, e.step)
		if err := e.stepThread(e.threads[t]); err != nil {
			return &e.stats, err
		}
		e.step++
		e.stats.Steps++
		if e.step > e.cfg.MaxSteps {
			return &e.stats, ErrStepLimit
		}
	}
	// On clean completion every frame has unwound, so every begun
	// transaction must have ended; mid-run (or on an aborted run) the
	// counters legitimately differ — see Stats.AbortedTx.
	if e.stats.TxEnds != e.stats.RegularTx {
		return &e.stats, fmt.Errorf("vm: internal: clean completion with %d transactions begun but %d ended",
			e.stats.RegularTx, e.stats.TxEnds)
	}
	e.inst.ProgramEnd()
	return &e.stats, nil
}

// setState moves th to state s. Every thread state change goes through it,
// and it adds th to or removes th from the runnable list, which stays in ID
// order.
func (e *Exec) setState(th *thread, s tstate) {
	was, is := th.state == tsRunnable, s == tsRunnable
	th.state = s
	if was == is {
		return
	}
	i, _ := slices.BinarySearch(e.runnable, th.id)
	if is {
		e.runnable = slices.Insert(e.runnable, i, th.id)
	} else {
		e.runnable = slices.Delete(e.runnable, i, i+1)
	}
}

func (e *Exec) allDone() bool {
	for _, th := range e.threads {
		if th.state != tsDone && th.state != tsNotStarted {
			return false
		}
	}
	return true
}

func (e *Exec) describeBlocked() string {
	s := ""
	for _, th := range e.threads {
		switch th.state {
		case tsBlockedLock:
			s += fmt.Sprintf(" t%d:lock(o%d)", th.id, th.blockOn)
		case tsBlockedJoin:
			s += fmt.Sprintf(" t%d:join(t%d)", th.id, th.blockJoin)
		case tsWaiting:
			s += fmt.Sprintf(" t%d:wait(o%d)", th.id, th.blockOn)
		}
	}
	return "blocked:" + s
}

// startThread makes a thread runnable, emits its start events, and performs
// the acquire-like read on its handle object that orders it after the fork.
func (e *Exec) startThread(t ThreadID) error {
	th := e.threads[t]
	if th.state != tsNotStarted {
		return fmt.Errorf("vm: thread t%d started twice", t)
	}
	e.setState(th, tsRunnable)
	e.stats.ThreadStarts++
	e.inst.ThreadStart(t)
	e.pushFrame(th, e.prog.Methods[e.prog.Threads[t].Entry])
	e.emitAccess(t, e.prog.ThreadObject(t), 0, false, ClassSync)
	// An entry method may be empty; settle frames immediately.
	return e.unwind(th)
}

// pushFrame pushes m on th's stack, beginning a regular transaction if m is
// atomic and th is not already inside one.
func (e *Exec) pushFrame(th *thread, m *Method) {
	atomic := e.cfg.Atomic != nil && e.cfg.Atomic(m.ID)
	fr := frame{m: m}
	if atomic {
		fr.atomicEntered = true
		if th.txDepth == 0 {
			th.txMethod = m.ID
			e.stats.RegularTx++
			e.inst.TxBegin(th.id, m.ID)
		}
		th.txDepth++
	}
	th.frames = append(th.frames, fr)
}

// unwind pops completed frames, ending transactions and exiting the thread
// as needed.
func (e *Exec) unwind(th *thread) error {
	for len(th.frames) > 0 {
		top := &th.frames[len(th.frames)-1]
		if top.pc < len(top.m.Body) {
			return nil
		}
		if top.atomicEntered {
			th.txDepth--
			if th.txDepth == 0 {
				e.stats.TxEnds++
				e.inst.TxEnd(th.id, th.txMethod)
				th.txMethod = NoMethod
			}
		}
		th.frames = th.frames[:len(th.frames)-1]
	}
	// Thread exit: release-like write on the handle object orders joiners.
	e.emitAccess(th.id, e.prog.ThreadObject(th.id), 0, true, ClassSync)
	e.stats.ThreadExits++
	e.inst.ThreadExit(th.id)
	e.setState(th, tsDone)
	for _, other := range e.threads {
		if other.state == tsBlockedJoin && other.blockJoin == th.id {
			e.setState(other, tsRunnable)
		}
	}
	return nil
}

func (e *Exec) emitAccess(t ThreadID, obj ObjectID, f FieldID, write bool, class AccessClass) {
	e.seq++
	switch class {
	case ClassField:
		e.stats.FieldAccesses++
	case ClassArray:
		e.stats.ArrayAccesses++
	case ClassSync:
		e.stats.SyncAccesses++
	}
	e.inst.Access(Access{Thread: t, Obj: obj, Field: f, Write: write, Class: class, Seq: e.seq})
}

// mon returns obj's monitor, growing the table on first use. Validate keeps
// monitor operands in [0, NumObjects).
func (e *Exec) mon(obj ObjectID) *monitor {
	for int(obj) >= len(e.mons) {
		e.mons = append(e.mons, monitor{owner: -1})
	}
	return &e.mons[obj]
}

// wakeLockWaiters makes every thread blocked acquiring obj runnable again;
// they retry their acquire when next scheduled.
func (e *Exec) wakeLockWaiters(obj ObjectID) {
	for _, th := range e.threads {
		if th.state == tsBlockedLock && th.blockOn == obj {
			e.setState(th, tsRunnable)
		}
	}
}

// stepThread executes (or attempts) one operation of th.
func (e *Exec) stepThread(th *thread) error {
	if e.cfg.Meter != nil {
		e.cfg.Meter.Charge(e.model.BaseOp)
	}
	top := &th.frames[len(th.frames)-1]
	op := top.m.Body[top.pc]
	e.stats.Ops++

	switch op.Kind {
	case OpRead, OpWrite:
		e.emitAccess(th.id, op.Obj, op.Field, op.Kind == OpWrite, ClassField)
		top.pc++

	case OpArrayRead, OpArrayWrite:
		e.emitAccess(th.id, op.Obj, op.Field, op.Kind == OpArrayWrite, ClassArray)
		top.pc++

	case OpAcquire:
		m := e.mon(op.Obj)
		if m.owner != -1 && m.owner != th.id {
			e.setState(th, tsBlockedLock)
			th.blockOn = op.Obj
			e.stats.BlockEvents++
			return nil // retry when woken
		}
		m.owner = th.id
		m.rec++
		e.emitAccess(th.id, op.Obj, 0, false, ClassSync) // acquire reads
		top.pc++

	case OpRelease:
		m := e.mon(op.Obj)
		if m.owner != th.id {
			return fmt.Errorf("vm: t%d releases o%d without owning it (%s+%d)",
				th.id, op.Obj, top.m.Name, top.pc)
		}
		e.emitAccess(th.id, op.Obj, 0, true, ClassSync) // release writes
		m.rec--
		if m.rec == 0 {
			m.owner = -1
			e.wakeLockWaiters(op.Obj)
		}
		top.pc++

	case OpCall:
		if len(th.frames) >= e.cfg.MaxCallDepth {
			return fmt.Errorf("vm: t%d exceeds call depth %d", th.id, e.cfg.MaxCallDepth)
		}
		top.pc++ // return past the call
		e.pushFrame(th, e.prog.Methods[op.Target])
		e.stats.Calls++

	case OpFork:
		child := ThreadID(op.Target)
		// Release-like write on the handle happens-before the child's start.
		e.emitAccess(th.id, e.prog.ThreadObject(child), 0, true, ClassSync)
		top.pc++
		e.stats.Forks++
		if err := e.startThread(child); err != nil {
			return err
		}

	case OpJoin:
		target := e.threads[op.Target]
		if target.state == tsDone {
			e.emitAccess(th.id, e.prog.ThreadObject(target.id), 0, false, ClassSync)
			top.pc++
		} else {
			e.setState(th, tsBlockedJoin)
			th.blockJoin = target.id
			e.stats.BlockEvents++
			return nil
		}

	case OpWait:
		m := e.mon(op.Obj)
		if th.reacquiring {
			// Resuming after notify: reacquire the monitor.
			if m.owner != -1 && m.owner != th.id {
				e.setState(th, tsBlockedLock)
				th.blockOn = op.Obj
				return nil
			}
			m.owner = th.id
			m.rec = th.savedRec
			th.reacquiring = false
			e.emitAccess(th.id, op.Obj, 0, false, ClassSync) // acquire reads
			top.pc++
			break
		}
		if m.owner != th.id {
			return fmt.Errorf("vm: t%d waits on o%d without owning it (%s+%d)",
				th.id, op.Obj, top.m.Name, top.pc)
		}
		if m.permits > 0 {
			// A banked notify: consume it without blocking. Wait/notify
			// here are semaphore-like — a notify with no waiter is banked
			// rather than lost — because the workload language has no
			// conditionals for the guarded-wait idiom, and lost signals
			// would make termination schedule-dependent. The dependence
			// structure (release-write then acquire-read on the monitor)
			// is identical to monitor semantics.
			m.permits--
			e.emitAccess(th.id, op.Obj, 0, true, ClassSync)  // release half
			e.emitAccess(th.id, op.Obj, 0, false, ClassSync) // acquire half
			e.stats.Waits++
			top.pc++
			break
		}
		e.emitAccess(th.id, op.Obj, 0, true, ClassSync) // wait releases
		th.savedRec = m.rec
		m.rec = 0
		m.owner = -1
		e.wakeLockWaiters(op.Obj)
		m.waitSet = append(m.waitSet, th.id)
		e.setState(th, tsWaiting)
		th.blockOn = op.Obj
		th.reacquiring = true
		e.stats.Waits++
		return nil // pc unchanged; resumes in reacquire phase

	case OpNotify, OpNotifyAll:
		m := e.mon(op.Obj)
		if m.owner != th.id {
			return fmt.Errorf("vm: t%d notifies o%d without owning it (%s+%d)",
				th.id, op.Obj, top.m.Name, top.pc)
		}
		e.emitAccess(th.id, op.Obj, 0, true, ClassSync) // notify writes
		n := len(m.waitSet)
		if op.Kind == OpNotify && n > 1 {
			n = 1
		}
		if op.Kind == OpNotify && n == 0 {
			m.permits++ // bank the signal (see OpWait)
		}
		for i := 0; i < n; i++ {
			// The waiter reacquires the monitor through its OpWait.
			e.setState(e.threads[m.waitSet[i]], tsRunnable)
		}
		m.waitSet = m.waitSet[n:]
		e.stats.Notifies++
		top.pc++

	case OpCompute:
		if e.cfg.Meter != nil {
			e.cfg.Meter.ChargeN(e.model.ComputeUnit, int64(op.Target))
		}
		e.stats.ComputeUnits += uint64(op.Target)
		top.pc++

	default:
		return fmt.Errorf("vm: t%d unknown op %v", th.id, op)
	}

	return e.unwind(th)
}
