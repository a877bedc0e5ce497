package crosscheck

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"doublechecker/internal/core"
	"doublechecker/internal/trace"
	"doublechecker/internal/vm"
)

// Predicate reports whether a candidate trace still exhibits the failure
// being minimized. Shrink only keeps a deletion when the predicate still
// holds on the repaired candidate.
type Predicate func(d *trace.Data) bool

// GuardPredicate wraps p so that a panic inside a checker counts as "not the
// same failure": the shrinker is allowed to propose structurally odd traces,
// and a crash on one of them must not be confused with the oracle failure
// under reduction.
func GuardPredicate(p Predicate) Predicate {
	return func(d *trace.Data) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		return p(d)
	}
}

// Shrink minimizes d's event list with delta debugging while pred keeps
// holding: whole-thread removal first, then chunk removal at halving
// granularity down to single events. Every candidate is repaired to a
// well-formed stream (thread starts present, transactions paired) before the
// predicate sees it, so the result is a standalone replayable trace. The
// input trace is returned unchanged if pred does not hold on it.
func Shrink(d *trace.Data, pred Predicate) *trace.Data {
	pred = GuardPredicate(pred)
	cur := repair(d, d.Events)
	if !pred(cur) {
		return d
	}

	// Pass 1: drop entire threads.
	for t := 0; t < len(d.Header.Program.Threads); t++ {
		var kept []trace.Event
		for _, ev := range cur.Events {
			if threadOf(ev) == vm.ThreadID(t) {
				continue
			}
			kept = append(kept, ev)
		}
		if len(kept) == len(cur.Events) {
			continue
		}
		if cand := repair(d, kept); pred(cand) {
			cur = cand
		}
	}

	// Pass 2: ddmin-style chunk removal, iterated to a fixpoint.
	for {
		before := len(cur.Events)
		for chunk := len(cur.Events) / 2; chunk >= 1; chunk /= 2 {
			for start := 0; start < len(cur.Events); {
				end := start + chunk
				if end > len(cur.Events) {
					end = len(cur.Events)
				}
				kept := make([]trace.Event, 0, len(cur.Events)-(end-start))
				kept = append(kept, cur.Events[:start]...)
				kept = append(kept, cur.Events[end:]...)
				// Accept only strictly smaller candidates: repair may
				// re-insert what was deleted (a thread start, a closing
				// TxEnd), and keeping an equal-sized candidate at the same
				// offset would loop forever.
				if cand := repair(d, kept); len(cand.Events) < len(cur.Events) && pred(cand) {
					cur = cand // retry the same offset: events shifted left
				} else {
					start = end
				}
			}
		}
		if len(cur.Events) == before {
			return cur
		}
	}
}

// threadOf returns the thread an event belongs to, or -1 for thread-less
// events (blocked-set, program-end).
func threadOf(ev trace.Event) vm.ThreadID {
	switch ev.Kind {
	case trace.EvThreadStart, trace.EvThreadExit, trace.EvTxBegin, trace.EvTxEnd, trace.EvAccess:
		return ev.Thread
	}
	return -1
}

// repair rebuilds a well-formed trace from an arbitrary subsequence of d's
// events: blocked-set and program-end events are dropped (the candidate is a
// partial execution), a thread start is inserted before a thread's first
// surviving event, unmatched transaction ends are dropped, and transactions
// left open are closed at the end of the stream. Deletion preserves the
// strictly ascending access clock, so the result encodes and replays.
func repair(d *trace.Data, events []trace.Event) *trace.Data {
	n := len(d.Header.Program.Threads)
	started := make([]bool, n)
	inTx := make([]bool, n)
	txMethod := make([]vm.MethodID, n)
	out := make([]trace.Event, 0, len(events)+n)
	for _, ev := range events {
		switch ev.Kind {
		case trace.EvBlockedSet, trace.EvProgramEnd:
			continue
		}
		t := threadOf(ev)
		if ev.Kind == trace.EvThreadStart {
			if started[t] {
				continue // duplicate start
			}
			started[t] = true
			out = append(out, ev)
			continue
		}
		if !started[t] {
			out = append(out, trace.Event{Kind: trace.EvThreadStart, Thread: t})
			started[t] = true
		}
		switch ev.Kind {
		case trace.EvTxBegin:
			if inTx[t] {
				continue // nested begins are never recorded; drop strays
			}
			inTx[t] = true
			txMethod[t] = ev.Method
		case trace.EvTxEnd:
			if !inTx[t] {
				continue
			}
			inTx[t] = false
			ev.Method = txMethod[t]
		}
		out = append(out, ev)
	}
	for t := 0; t < n; t++ {
		if inTx[t] {
			out = append(out, trace.Event{Kind: trace.EvTxEnd, Thread: vm.ThreadID(t), Method: txMethod[t]})
		}
	}
	nd := &trace.Data{Header: d.Header, Events: out, Counts: tally(out), Complete: false}
	return nd
}

// tally recomputes the per-kind event counts of a rebuilt stream.
func tally(events []trace.Event) vm.EventCounts {
	var c vm.EventCounts
	for _, ev := range events {
		switch ev.Kind {
		case trace.EvThreadStart:
			c.ThreadStarts++
		case trace.EvThreadExit:
			c.ThreadExits++
		case trace.EvTxBegin:
			c.TxBegins++
		case trace.EvTxEnd:
			c.TxEnds++
		case trace.EvAccess:
			switch ev.Class {
			case vm.ClassField:
				c.FieldAccesses++
			case vm.ClassArray:
				c.ArrayAccesses++
			default:
				c.SyncAccesses++
			}
		}
	}
	return c
}

// WriteRepro encodes a (typically shrunk) trace as a standalone .dct file:
// the full program and specification are embedded, so the repro replays with
// no other inputs. The header's source notes the provenance.
func WriteRepro(d *trace.Data, path, provenance string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	hdr := d.Header
	hdr.Source = provenance
	w, err := trace.NewWriter(f, trace.Header{
		Program: hdr.Program,
		Atomic:  append([]vm.MethodID(nil), hdr.Atomic...),
		Seed:    hdr.Seed,
		Sched:   hdr.Sched,
		Source:  provenance,
	})
	if err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	for _, ev := range d.Events {
		switch ev.Kind {
		case trace.EvThreadStart:
			w.ThreadStart(ev.Thread)
		case trace.EvThreadExit:
			w.ThreadExit(ev.Thread)
		case trace.EvTxBegin:
			w.TxBegin(ev.Thread, ev.Method)
		case trace.EvTxEnd:
			w.TxEnd(ev.Thread, ev.Method)
		case trace.EvAccess:
			w.Access(ev.Access())
		case trace.EvBlockedSet:
			w.BlockedSet(d.BlockedSet(ev))
		case trace.EvProgramEnd:
			w.ProgramEnd()
		}
	}
	if err := w.Close(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

// shrinkAndWrite minimizes a failing triple's trace against "the same oracle
// still fails" and writes the repro into opts.ReproDir.
func shrinkAndWrite(ctx context.Context, d *trace.Data, r TripleResult, opts Options) (string, int, error) {
	pred := FailurePredicate(ctx, r)
	small := Shrink(d, pred)
	name := fmt.Sprintf("%s_%s_seed%d.dct", sanitize(r.Source), sanitize(r.Sched), r.Seed)
	path := filepath.Join(opts.ReproDir, name)
	prov := fmt.Sprintf("crosscheck shrink of %s (%s)", r.Triple, failureKind(r))
	if err := WriteRepro(small, path, prov); err != nil {
		return "", 0, err
	}
	return path, len(small.Events), nil
}

// FailurePredicate builds the shrinker predicate matching r's failure kind:
// an agreement failure must still disagree, a determinism failure must still
// diverge.
func FailurePredicate(ctx context.Context, r TripleResult) Predicate {
	if !r.Agree {
		return func(d *trace.Data) bool {
			td, err := core.DiffTrace(ctx, d)
			return err == nil && !td.Agree()
		}
	}
	return func(d *trace.Data) bool {
		ok, _, err := CheckDeterminism(ctx, d)
		return err == nil && !ok
	}
}

func failureKind(r TripleResult) string {
	if !r.Agree {
		return "checker disagreement"
	}
	return "determinism divergence: " + r.DetDiag
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, s)
}
