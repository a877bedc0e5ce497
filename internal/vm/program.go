// Package vm implements the execution substrate of this reproduction: a
// deterministic multithreaded virtual machine.
//
// The paper instruments Java programs inside Jikes RVM; every load and store
// passes through compiler-inserted barriers, and atomic regions are
// demarcated by method entry/exit. Go offers no such hook, so we interpret
// method-structured programs ourselves. A program is a set of methods (flat
// operation lists) and a set of threads, each with an entry method. The
// executor (exec.go) runs one operation of one runnable thread per step,
// choosing the thread with a pluggable, seeded scheduler — which makes every
// interleaving reproducible and lets us run different checkers over the
// *identical* execution.
//
// Every operation that a JVM barrier would observe is surfaced to an
// Instrumentation: data reads/writes on object fields, array accesses,
// monitor acquire/release, wait/notify, fork/join (the latter four desugared
// into release-like writes and acquire-like reads on designated objects,
// exactly how the paper's checkers treat synchronization), and transaction
// begin/end events derived from the atomicity specification.
package vm

import (
	"fmt"
	"math"
)

// ThreadID identifies a thread within a program. Threads are numbered
// densely from 0 in the order they are declared.
type ThreadID int32

// ObjectID identifies a shared object (any unit of shared memory: a data
// object, a lock, an array, or a synthesized per-thread handle object).
type ObjectID int32

// FieldID identifies a field within an object, or an element index within an
// array. Checkers may track dependences at object or field granularity.
type FieldID int32

// MethodID indexes Program.Methods.
type MethodID int32

// NoMethod marks the absence of a method (e.g. the method of a unary
// transaction).
const NoMethod MethodID = -1

// Grow extends xs with zero values so index i is addressable. Thread and
// object IDs are dense from zero, so per-ID state lives in slices grown this
// way on first touch instead of in maps.
func Grow[T any](xs []T, i int) []T {
	if i < len(xs) {
		return xs
	}
	return append(xs, make([]T, i+1-len(xs))...)
}

// OpKind enumerates the virtual machine's operations.
type OpKind uint8

const (
	// OpRead reads Obj.Field.
	OpRead OpKind = iota
	// OpWrite writes Obj.Field.
	OpWrite
	// OpArrayRead reads element Field of array object Obj.
	OpArrayRead
	// OpArrayWrite writes element Field of array object Obj.
	OpArrayWrite
	// OpAcquire acquires the monitor of Obj (reentrant).
	OpAcquire
	// OpRelease releases the monitor of Obj.
	OpRelease
	// OpCall invokes method Target.
	OpCall
	// OpFork starts thread Target (which must be declared with AutoStart
	// false and not yet started).
	OpFork
	// OpJoin blocks until thread Target has exited.
	OpJoin
	// OpWait waits on the monitor of Obj, which the thread must hold; the
	// monitor is released while waiting and reacquired before continuing.
	// A banked notify (see OpNotify) is consumed without blocking.
	OpWait
	// OpNotify wakes one waiter on Obj's monitor (FIFO, for determinism).
	// With no waiter the signal is banked rather than lost (semaphore
	// semantics): the workload language has no conditionals for guarded
	// waits, and lost signals would make termination schedule-dependent.
	OpNotify
	// OpNotifyAll wakes every waiter on Obj's monitor.
	OpNotifyAll
	// OpCompute performs Target units of pure thread-local work. It touches
	// no shared memory and is invisible to checkers; it exists to shape the
	// ratio of instrumented to uninstrumented work per benchmark.
	OpCompute
)

var opKindNames = [...]string{
	OpRead: "read", OpWrite: "write",
	OpArrayRead: "aread", OpArrayWrite: "awrite",
	OpAcquire: "acquire", OpRelease: "release",
	OpCall: "call", OpFork: "fork", OpJoin: "join",
	OpWait: "wait", OpNotify: "notify", OpNotifyAll: "notifyall",
	OpCompute: "compute",
}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one virtual machine operation. The meaning of Obj, Field and Target
// depends on Kind; unused parts are zero.
type Op struct {
	Kind   OpKind
	Obj    ObjectID // object / lock / array / monitor operand
	Field  FieldID  // field or array element index
	Target int32    // MethodID for call; ThreadID for fork/join; work for compute
}

func (o Op) String() string {
	switch o.Kind {
	case OpRead, OpWrite, OpArrayRead, OpArrayWrite:
		return fmt.Sprintf("%s o%d.%d", o.Kind, o.Obj, o.Field)
	case OpAcquire, OpRelease, OpWait, OpNotify, OpNotifyAll:
		return fmt.Sprintf("%s o%d", o.Kind, o.Obj)
	case OpCall:
		return fmt.Sprintf("call m%d", o.Target)
	case OpFork, OpJoin:
		return fmt.Sprintf("%s t%d", o.Kind, o.Target)
	case OpCompute:
		return fmt.Sprintf("compute %d", o.Target)
	}
	return fmt.Sprintf("op(%d)", o.Kind)
}

// Method is a named, flat list of operations. Loops in the surface language
// are unrolled during lowering; recursion is permitted up to the executor's
// call-depth limit.
type Method struct {
	ID   MethodID
	Name string
	Body []Op
}

// ThreadDecl declares a thread. AutoStart threads begin runnable at step 0;
// the rest must be started with OpFork.
type ThreadDecl struct {
	ID        ThreadID
	Entry     MethodID
	AutoStart bool
}

// Program is a complete multithreaded program.
type Program struct {
	Name       string
	Methods    []*Method
	Threads    []ThreadDecl
	NumObjects int              // data/lock/array objects are 0..NumObjects-1
	ArrayLens  map[ObjectID]int // declared arrays and their lengths
}

// TotalObjects counts program objects plus the synthesized per-thread handle
// objects used to model fork/join dependences.
func (p *Program) TotalObjects() int { return p.NumObjects + len(p.Threads) }

// ThreadObject returns the synthesized handle object of thread t. Fork and
// thread start/exit/join are modelled as writes and reads on this object.
func (p *Program) ThreadObject(t ThreadID) ObjectID {
	return ObjectID(p.NumObjects + int(t))
}

// IsArray reports whether obj was declared as an array.
func (p *Program) IsArray(obj ObjectID) bool {
	_, ok := p.ArrayLens[obj]
	return ok
}

// MethodByName returns the method with the given name, or nil.
func (p *Program) MethodByName(name string) *Method {
	for _, m := range p.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// MethodName returns the name of m, or a placeholder for NoMethod.
func (p *Program) MethodName(m MethodID) string {
	if m == NoMethod {
		return "<unary>"
	}
	return p.Methods[m].Name
}

// Validate checks structural well-formedness: operand ranges, call targets,
// fork/join targets, array bounds, and that auto-start threads exist.
func (p *Program) Validate() error {
	if len(p.Threads) == 0 {
		return fmt.Errorf("program %q: no threads", p.Name)
	}
	// Every object, the threads' handle objects included, needs an ObjectID:
	// a count past int32 would wrap a handle negative.
	if p.NumObjects < 0 || p.NumObjects > math.MaxInt32-len(p.Threads) {
		return fmt.Errorf("program %q: %d objects and %d threads do not fit object IDs", p.Name, p.NumObjects, len(p.Threads))
	}
	auto := 0
	for i, t := range p.Threads {
		if t.ID != ThreadID(i) {
			return fmt.Errorf("program %q: thread %d has ID %d", p.Name, i, t.ID)
		}
		if int(t.Entry) < 0 || int(t.Entry) >= len(p.Methods) {
			return fmt.Errorf("program %q: thread %d entry method %d out of range", p.Name, i, t.Entry)
		}
		if t.AutoStart {
			auto++
		}
	}
	if auto == 0 {
		return fmt.Errorf("program %q: no auto-start threads", p.Name)
	}
	names := make(map[string]bool, len(p.Methods))
	for i, m := range p.Methods {
		if m.ID != MethodID(i) {
			return fmt.Errorf("program %q: method %q has ID %d at index %d", p.Name, m.Name, m.ID, i)
		}
		if names[m.Name] {
			return fmt.Errorf("program %q: duplicate method name %q", p.Name, m.Name)
		}
		names[m.Name] = true
		for pc, op := range m.Body {
			if err := p.validateOp(m, pc, op); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *Program) validateOp(m *Method, pc int, op Op) error {
	bad := func(msg string) error {
		return fmt.Errorf("program %q: %s+%d (%s): %s", p.Name, m.Name, pc, op, msg)
	}
	switch op.Kind {
	case OpRead, OpWrite:
		if int(op.Obj) < 0 || int(op.Obj) >= p.NumObjects {
			return bad("object out of range")
		}
		if op.Field < 0 {
			return bad("negative field")
		}
	case OpArrayRead, OpArrayWrite:
		n, ok := p.ArrayLens[op.Obj]
		if !ok {
			return bad("not a declared array")
		}
		if int(op.Field) < 0 || int(op.Field) >= n {
			return bad("array index out of bounds")
		}
	case OpAcquire, OpRelease, OpWait, OpNotify, OpNotifyAll:
		if int(op.Obj) < 0 || int(op.Obj) >= p.NumObjects {
			return bad("monitor object out of range")
		}
	case OpCall:
		if int(op.Target) < 0 || int(op.Target) >= len(p.Methods) {
			return bad("call target out of range")
		}
	case OpFork, OpJoin:
		if int(op.Target) < 0 || int(op.Target) >= len(p.Threads) {
			return bad("thread target out of range")
		}
		if op.Kind == OpFork && p.Threads[op.Target].AutoStart {
			return bad("fork of auto-start thread")
		}
	case OpCompute:
		if op.Target < 0 {
			return bad("negative compute amount")
		}
	default:
		return bad("unknown op kind")
	}
	return nil
}
