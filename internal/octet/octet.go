// Package octet implements the Octet software concurrency-control mechanism
// (Bond et al., OOPSLA 2013) that DoubleChecker's imprecise analysis builds
// on (paper §3.2.1, Table 1).
//
// Octet maintains a per-object locality state — WrEx_T (write-exclusive for
// thread T), RdEx_T (read-exclusive for T), or RdSh_c (read-shared, stamped
// with the global read-shared counter value c). Barriers before every load
// and store check the state (the fast path — no writes, no synchronization)
// and, when the state must change, run a slow path whose flavor classifies
// the transition:
//
//   - upgrading (RdEx_T -> WrEx_T by T, or RdEx_T1 -> RdSh by T2): an atomic
//     state change, no coordination;
//   - fence (read of an RdSh_c object by a thread whose rdShCnt < c): a
//     counter update plus a memory fence;
//   - conflicting (anything that revokes another thread's exclusivity): a
//     coordination protocol with each responding thread — "explicit" (a
//     round trip answered at the responder's next safe point) when the
//     responder is running, "implicit" (an atomically set flag) when it is
//     blocked.
//
// The state transitions establish happens-before edges that transitively
// imply all cross-thread dependences; the Hooks interface is where ICD
// piggybacks (paper Figure 4).
//
// Our interpreter executes one operation per step, so the coordination
// protocol completes synchronously within the requesting access: the
// responder's "current safe point" is simply its current execution point,
// and the engine reports which protocol the real system would have used so
// the cost model can charge it.
package octet

import (
	"fmt"

	"doublechecker/internal/cost"
	"doublechecker/internal/vm"
)

// StateKind enumerates Octet locality states.
type StateKind uint8

const (
	// Free is the pre-first-access state. Octet objects are born in WrEx of
	// the allocating thread; our programs' objects pre-exist, so the first
	// accessor claims the object without coordination.
	Free StateKind = iota
	// WrEx: write-exclusive for Owner.
	WrEx
	// RdEx: read-exclusive for Owner.
	RdEx
	// RdSh: read-shared, stamped with Counter.
	RdSh
)

func (k StateKind) String() string {
	switch k {
	case Free:
		return "Free"
	case WrEx:
		return "WrEx"
	case RdEx:
		return "RdEx"
	case RdSh:
		return "RdSh"
	}
	return fmt.Sprintf("StateKind(%d)", uint8(k))
}

// State is one object's Octet state.
type State struct {
	Kind    StateKind
	Owner   vm.ThreadID // valid for WrEx and RdEx
	Counter uint64      // valid for RdSh: gRdShCnt value at the upgrade
}

func (s State) String() string {
	switch s.Kind {
	case WrEx, RdEx:
		return fmt.Sprintf("%s_t%d", s.Kind, s.Owner)
	case RdSh:
		return fmt.Sprintf("RdSh_%d", s.Counter)
	}
	return s.Kind.String()
}

// TransitionKind classifies what a barrier did (Table 1 row groups).
type TransitionKind uint8

const (
	// Same: fast path, no state change.
	Same TransitionKind = iota
	// Initial: first access claims a Free object (no dependence possible).
	Initial
	// Upgrading: RdEx->WrEx by the owner, or RdEx_T1 -> RdSh by T2.
	Upgrading
	// Fence: RdSh read requiring a counter update and fence.
	Fence
	// Conflicting: revokes exclusivity; coordination with responder(s).
	Conflicting
)

func (k TransitionKind) String() string {
	switch k {
	case Same:
		return "same"
	case Initial:
		return "initial"
	case Upgrading:
		return "upgrading"
	case Fence:
		return "fence"
	case Conflicting:
		return "conflicting"
	}
	return fmt.Sprintf("TransitionKind(%d)", uint8(k))
}

// Transition reports what one barrier invocation did.
type Transition struct {
	Kind     TransitionKind
	Old, New State
}

// Hooks receives slow-path notifications; ICD implements this (Figure 4).
// Hook invocations happen after the state change has been decided but are
// passed both old and new states.
type Hooks interface {
	// HandleConflicting is invoked once per responding thread of a
	// conflicting transition. explicit reports whether the explicit
	// (round-trip) protocol was used; the implicit protocol is used when
	// the responder is blocked.
	HandleConflicting(resp, req vm.ThreadID, old, new State, explicit bool)
	// HandleUpgrading is invoked for RdEx_T1 -> RdSh upgrades. rdExOwner is
	// T1 (whose lastRdEx sources one IDG edge); newCounter is the fresh
	// gRdShCnt value.
	HandleUpgrading(t vm.ThreadID, rdExOwner vm.ThreadID, old, new State)
	// HandleFence is invoked for fence transitions.
	HandleFence(t vm.ThreadID, counter uint64)
}

// NopHooks is a Hooks that does nothing (used when measuring Octet alone).
type NopHooks struct{}

// HandleConflicting implements Hooks.
func (NopHooks) HandleConflicting(vm.ThreadID, vm.ThreadID, State, State, bool) {}

// HandleUpgrading implements Hooks.
func (NopHooks) HandleUpgrading(vm.ThreadID, vm.ThreadID, State, State) {}

// HandleFence implements Hooks.
func (NopHooks) HandleFence(vm.ThreadID, uint64) {}

// Stats counts barrier outcomes.
type Stats struct {
	FastPath    uint64
	Initial     uint64
	Upgrading   uint64 // includes RdEx->WrEx by owner
	Fences      uint64
	Conflicting uint64 // conflicting transitions (not per-responder)
	Responders  uint64 // total responder coordinations
	Explicit    uint64 // explicit-protocol responders
	Implicit    uint64 // implicit-protocol responders
}

// Engine tracks Octet state for every object of one execution.
//
// Object and thread IDs are dense small integers (the VM allocates them
// contiguously from zero), so the per-variable state lives in slices grown on
// first touch rather than maps: the per-access fast path is then a bounds
// check plus an indexed load, with no hashing and no allocation.
type Engine struct {
	states   []State  // indexed by ObjectID
	rdShCnt  []uint64 // indexed by ThreadID
	gRdShCnt uint64
	hooks    Hooks
	blocked  func(vm.ThreadID) bool
	live     []bool // indexed by ThreadID
	exited   []bool // indexed by ThreadID
	resps    []vm.ThreadID
	meter    *cost.Meter
	model    cost.Model // the meter's prices, read once
	stats    Stats
}

// New returns an Engine. blocked reports whether a thread is currently
// blocked (the executor provides this); meter may be nil.
func New(hooks Hooks, blocked func(vm.ThreadID) bool, meter *cost.Meter) *Engine {
	if hooks == nil {
		hooks = NopHooks{}
	}
	if blocked == nil {
		blocked = func(vm.ThreadID) bool { return false }
	}
	return &Engine{hooks: hooks, blocked: blocked, meter: meter, model: meter.Model()}
}

// ThreadStart registers a live thread (a candidate responder).
func (e *Engine) ThreadStart(t vm.ThreadID) {
	e.live = vm.Grow(e.live, int(t))
	e.live[t] = true
}

// ThreadExit marks a thread exited. It remains a responder for RdSh
// conflicts — its reads are still unordered with respect to a future
// writer, and dropping the coordination (and with it ICD's edge from the
// thread's last transaction) would miss dependences; the coordination is
// trivially implicit, as with any blocked thread.
func (e *Engine) ThreadExit(t vm.ThreadID) {
	e.exited = vm.Grow(e.exited, int(t))
	e.exited[t] = true
}

// StateOf returns obj's current state.
func (e *Engine) StateOf(obj vm.ObjectID) State {
	if int(obj) < len(e.states) {
		return e.states[obj]
	}
	return State{}
}

// setState installs obj's state, growing the table on first touch.
func (e *Engine) setState(obj vm.ObjectID, s State) {
	e.states = vm.Grow(e.states, int(obj))
	e.states[obj] = s
}

// GRdShCnt returns the global read-shared counter.
func (e *Engine) GRdShCnt() uint64 { return e.gRdShCnt }

// RdShCnt returns thread t's local read-shared counter.
func (e *Engine) RdShCnt(t vm.ThreadID) uint64 {
	if int(t) < len(e.rdShCnt) {
		return e.rdShCnt[t]
	}
	return 0
}

// setRdShCnt installs thread t's local read-shared counter.
func (e *Engine) setRdShCnt(t vm.ThreadID, c uint64) {
	e.rdShCnt = vm.Grow(e.rdShCnt, int(t))
	e.rdShCnt[t] = c
}

func (e *Engine) isExited(t vm.ThreadID) bool {
	return int(t) < len(e.exited) && e.exited[t]
}

// Stats returns barrier statistics.
func (e *Engine) Stats() Stats { return e.stats }

func (e *Engine) charge(u cost.Units) {
	if e.meter != nil {
		e.meter.Charge(u)
	}
}

// BeforeRead runs the read barrier for thread t on obj (Table 1 read rows)
// and returns the transition taken.
func (e *Engine) BeforeRead(t vm.ThreadID, obj vm.ObjectID) Transition {
	old := e.StateOf(obj)
	switch old.Kind {
	case WrEx, RdEx:
		if old.Owner == t {
			e.stats.FastPath++
			e.charge(e.model.OctetFastPath)
			return Transition{Kind: Same, Old: old, New: old}
		}
		if old.Kind == WrEx {
			// Conflicting: WrEx_T1, R by T2 -> RdEx_T2.
			return e.conflict(t, obj, old, State{Kind: RdEx, Owner: t})
		}
		// Upgrading: RdEx_T1, R by T2 -> RdSh_c with fresh c.
		e.gRdShCnt++
		newState := State{Kind: RdSh, Counter: e.gRdShCnt}
		e.setState(obj, newState)
		e.setRdShCnt(t, e.gRdShCnt)
		e.stats.Upgrading++
		e.charge(e.model.OctetUpgrade)
		e.hooks.HandleUpgrading(t, old.Owner, old, newState)
		return Transition{Kind: Upgrading, Old: old, New: newState}
	case RdSh:
		if e.RdShCnt(t) >= old.Counter {
			e.stats.FastPath++
			e.charge(e.model.OctetFastPath)
			return Transition{Kind: Same, Old: old, New: old}
		}
		// Fence transition: update the thread's counter.
		e.setRdShCnt(t, old.Counter)
		e.stats.Fences++
		e.charge(e.model.OctetFence)
		e.hooks.HandleFence(t, old.Counter)
		return Transition{Kind: Fence, Old: old, New: old}
	default: // Free: first access claims read-exclusivity.
		newState := State{Kind: RdEx, Owner: t}
		e.setState(obj, newState)
		e.stats.Initial++
		e.charge(e.model.OctetUpgrade)
		return Transition{Kind: Initial, Old: old, New: newState}
	}
}

// BeforeWrite runs the write barrier for thread t on obj (Table 1 write
// rows) and returns the transition taken.
func (e *Engine) BeforeWrite(t vm.ThreadID, obj vm.ObjectID) Transition {
	old := e.StateOf(obj)
	switch old.Kind {
	case WrEx:
		if old.Owner == t {
			e.stats.FastPath++
			e.charge(e.model.OctetFastPath)
			return Transition{Kind: Same, Old: old, New: old}
		}
		return e.conflict(t, obj, old, State{Kind: WrEx, Owner: t})
	case RdEx:
		if old.Owner == t {
			// Upgrading: RdEx_T -> WrEx_T, atomic, no coordination, and —
			// per §3.2.2 — safely ignored by ICD (no hook).
			newState := State{Kind: WrEx, Owner: t}
			e.setState(obj, newState)
			e.stats.Upgrading++
			e.charge(e.model.OctetUpgrade)
			return Transition{Kind: Upgrading, Old: old, New: newState}
		}
		return e.conflict(t, obj, old, State{Kind: WrEx, Owner: t})
	case RdSh:
		return e.conflict(t, obj, old, State{Kind: WrEx, Owner: t})
	default: // Free
		newState := State{Kind: WrEx, Owner: t}
		e.setState(obj, newState)
		e.stats.Initial++
		e.charge(e.model.OctetUpgrade)
		return Transition{Kind: Initial, Old: old, New: newState}
	}
}

// conflict performs a conflicting transition: determines the responding
// threads, runs the (modelled) coordination protocol with each, fires hooks,
// and installs the new state.
//
// For WrEx/RdEx old states the responder is the old owner. For RdSh -> WrEx
// the engine — like Octet, which does not track the read-shared reader set —
// must coordinate with every other live thread (§3.2.2 "for conflicting
// transitions from RdSh to WrExT, ICD adds edges from all threads").
func (e *Engine) conflict(req vm.ThreadID, obj vm.ObjectID, old, newState State) Transition {
	e.stats.Conflicting++
	resps := e.resps[:0]
	switch old.Kind {
	case WrEx, RdEx:
		resps = append(resps, old.Owner)
	case RdSh:
		// Slice iteration yields threads in ID order, so the responder
		// sequence is deterministic without a sort.
		for t, on := range e.live {
			if on && vm.ThreadID(t) != req {
				resps = append(resps, vm.ThreadID(t))
			}
		}
	}
	for _, resp := range resps {
		explicit := !e.blocked(resp) && !e.isExited(resp)
		if explicit {
			e.stats.Explicit++
			e.charge(e.model.OctetConflictExplicit)
		} else {
			e.stats.Implicit++
			e.charge(e.model.OctetConflictImplicit)
		}
		e.stats.Responders++
		e.hooks.HandleConflicting(resp, req, old, newState, explicit)
	}
	e.resps = resps[:0]
	e.setState(obj, newState)
	return Transition{Kind: Conflicting, Old: old, New: newState}
}
