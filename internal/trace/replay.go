package trace

import (
	"context"

	"doublechecker/internal/vm"
)

// Replayer drives a vm.Instrumentation from a decoded trace with no VM at
// all. It implements vm.ExecView, answering the checker's context queries
// (clock, blocked set, transaction state) exactly as the live executor did:
// the clock follows the recorded access sequence, the blocked set follows
// the recorded blocked-set events, and transaction state is reconstructed
// from the Tx events with the executor's dispatch-order semantics (a thread
// is not yet "in" a transaction while its TxBegin hook runs, and no longer
// in it while its TxEnd hook runs).
type Replayer struct {
	data     *Data
	seq      uint64
	inTx     []bool
	txMethod []vm.MethodID
	blocked  []bool
}

var _ vm.ExecView = (*Replayer)(nil)

// NewReplayer returns a Replayer over d, positioned before the first event.
// All threads start blocked (not yet started), matching the executor.
func NewReplayer(d *Data) *Replayer {
	n := len(d.Header.Program.Threads)
	r := &Replayer{
		data:     d,
		inTx:     make([]bool, n),
		txMethod: make([]vm.MethodID, n),
		blocked:  make([]bool, n),
	}
	for i := 0; i < n; i++ {
		r.txMethod[i] = vm.NoMethod
		r.blocked[i] = true
	}
	return r
}

// Now implements vm.ExecView: the recorded access clock.
func (r *Replayer) Now() uint64 { return r.seq }

// Blocked implements vm.ExecView from the recorded blocked-set events.
func (r *Replayer) Blocked(t vm.ThreadID) bool {
	if int(t) < 0 || int(t) >= len(r.blocked) {
		return false
	}
	return r.blocked[t]
}

// InTx implements vm.ExecView.
func (r *Replayer) InTx(t vm.ThreadID) bool {
	if int(t) < 0 || int(t) >= len(r.inTx) {
		return false
	}
	return r.inTx[t]
}

// TxMethod implements vm.ExecView.
func (r *Replayer) TxMethod(t vm.ThreadID) vm.MethodID {
	if int(t) < 0 || int(t) >= len(r.txMethod) || !r.inTx[t] {
		return vm.NoMethod
	}
	return r.txMethod[t]
}

// Run dispatches the whole trace into inst: ProgramStart with the Replayer
// as the execution view, every recorded event in order, and ProgramEnd if
// the recorded execution completed. ctx is polled periodically; replay
// stops early with ctx.Err() on cancellation.
func (r *Replayer) Run(ctx context.Context, inst vm.Instrumentation) error {
	if inst == nil {
		inst = vm.NopInst{}
	}
	inst.ProgramStart(r)
	for i, ev := range r.data.Events {
		if i&255 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		switch ev.Kind {
		case EvBlockedSet:
			for t := range r.blocked {
				r.blocked[t] = false
			}
			for _, t := range r.data.BlockedSet(ev) {
				r.blocked[t] = true
			}
		case EvThreadStart:
			inst.ThreadStart(ev.Thread)
		case EvThreadExit:
			inst.ThreadExit(ev.Thread)
		case EvTxBegin:
			// The executor dispatches TxBegin before marking the thread in-tx.
			inst.TxBegin(ev.Thread, ev.Method)
			r.inTx[ev.Thread] = true
			r.txMethod[ev.Thread] = ev.Method
		case EvTxEnd:
			// ... and clears the in-tx state before dispatching TxEnd.
			r.inTx[ev.Thread] = false
			r.txMethod[ev.Thread] = vm.NoMethod
			inst.TxEnd(ev.Thread, ev.Method)
		case EvAccess:
			// The executor advances the clock, then dispatches the access.
			r.seq = ev.Seq
			inst.Access(ev.Access())
		case EvProgramEnd:
			inst.ProgramEnd()
		}
	}
	return nil
}

// Replay decodes nothing itself: it replays an already-decoded trace
// through inst. Equivalent to NewReplayer(d).Run(ctx, inst).
func Replay(ctx context.Context, d *Data, inst vm.Instrumentation) error {
	return NewReplayer(d).Run(ctx, inst)
}
