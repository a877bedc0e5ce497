// Package trace records the VM's instrumentation event stream into a
// compact, versioned binary format and replays it — through any
// vm.Instrumentation, hence any checker — without re-executing the program.
//
// Today every checker in this repository consumes the same event stream,
// but the stream exists only transiently inside a live execution. Capturing
// it makes the trace the first-class interface between program and monitor:
// analyses can be decoupled from execution, compared on a *guaranteed*
// identical interleaving (not merely an identical seed), regression-tested
// against a frozen corpus, and farmed out to workers that never run a VM.
//
// # File format
//
// A trace file is:
//
//	magic "DCTR" | uvarint version | header chunk | event chunks ... |
//	uvarint 0 (end marker) | trailer chunk
//
// Every chunk is framed as
//
//	uvarint payloadLen | uint32le CRC32(payload) | payload
//
// so truncation and corruption are detected per chunk. The header chunk is
// self-contained: it embeds the full program (methods, bodies, threads,
// objects, arrays), the atomicity specification (the atomic method IDs),
// the schedule seed and scheduler description, FNV-1a digests of the
// program and specification encodings, and a free-form source note. A
// trace therefore needs no side files to replay.
//
// Events are packed with varint-encoded deltas: the access clock is stored
// as a delta from the previous access, and thread/object/field operands as
// unsigned varints. Access kind, read/write, and access class share one
// opcode byte. A blocked-set event records which threads the executor
// reported blocked whenever that set changes, so a replayer can answer the
// Octet coordination protocol's Blocked queries exactly as the live
// executor did.
//
// The trailer carries the per-kind event counts (vm.EventCounts); the
// reader re-tallies while decoding and rejects a trace whose counts
// disagree, which is also how recorder completeness is asserted against
// vm.Stats.Events.
package trace

import (
	"errors"
	"fmt"
	"math"

	"doublechecker/internal/vm"
)

// Format identity.
const (
	// Magic is the four-byte file signature.
	Magic = "DCTR"
	// Version is the current format version. Readers reject other versions.
	Version = 1
)

// Decode errors; match with errors.Is.
var (
	// ErrBadMagic reports a file that is not a trace at all.
	ErrBadMagic = errors.New("trace: bad magic (not a trace file)")
	// ErrVersion reports a trace written by an incompatible format version.
	ErrVersion = errors.New("trace: unsupported format version")
	// ErrCorrupt reports a chunk whose CRC or content checks failed.
	ErrCorrupt = errors.New("trace: corrupt")
	// ErrTruncated reports a trace that ends before its end marker.
	ErrTruncated = errors.New("trace: truncated")
	// ErrIO reports that the underlying reader itself failed mid-stream —
	// a transport fault (connection reset, body limit, disk error) rather
	// than a malformed file. The underlying error is wrapped alongside, so
	// errors.Is/As can still see it (e.g. http.MaxBytesError, an injected
	// reset): a service can map ErrIO to a client/transport verdict and the
	// other decode errors to "bad trace file".
	ErrIO = errors.New("trace: read failed")
)

// EventKind enumerates replayable events.
type EventKind uint8

// The event kinds a trace records. Access events additionally carry the
// access class and read/write bit inside vm.Access.
const (
	EvThreadStart EventKind = iota + 1
	EvThreadExit
	EvTxBegin
	EvTxEnd
	EvProgramEnd
	EvBlockedSet
	EvAccess
)

func (k EventKind) String() string {
	switch k {
	case EvThreadStart:
		return "thread-start"
	case EvThreadExit:
		return "thread-exit"
	case EvTxBegin:
		return "tx-begin"
	case EvTxEnd:
		return "tx-end"
	case EvProgramEnd:
		return "program-end"
	case EvBlockedSet:
		return "blocked-set"
	case EvAccess:
		return "access"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one decoded trace event. It holds no pointer, so the garbage
// collector never scans a decoded stream, and it packs into 32 bytes. Which
// fields an event uses depends on its kind:
//
//	EvThreadStart, EvThreadExit  Thread
//	EvTxBegin, EvTxEnd           Thread, Method
//	EvAccess                     Thread, Obj, Field, Write, Class, Seq
//	EvBlockedSet                 its set, through Data.BlockedSet
//	EvProgramEnd                 none
type Event struct {
	Kind   EventKind
	Write  bool
	Class  vm.AccessClass
	Thread vm.ThreadID
	Obj    vm.ObjectID
	Field  vm.FieldID
	Method vm.MethodID
	// set is an EvBlockedSet's offset into its Data's blocked-set arena.
	// The arena holds each set as its size followed by its threads, and
	// offset 0 always reads as the empty set, so the zero Event of kind
	// EvBlockedSet marks no thread blocked.
	set uint32
	Seq uint64
}

// Access returns an EvAccess event's access.
func (e Event) Access() vm.Access {
	return vm.Access{Thread: e.Thread, Obj: e.Obj, Field: e.Field,
		Write: e.Write, Class: e.Class, Seq: e.Seq}
}

// Header is the self-contained metadata block at the front of every trace.
type Header struct {
	// Version is the format version the trace was written with.
	Version int
	// Program is the full embedded program; replaying needs nothing else.
	Program *vm.Program
	// Atomic lists the atomicity specification's method IDs, sorted. The
	// Tx events in the stream were derived from this spec at record time,
	// so a replayed checker checks the same specification.
	Atomic []vm.MethodID
	// Seed is the schedule seed of the recorded execution.
	Seed int64
	// Sched describes the scheduler (e.g. "sticky(0.10)").
	Sched string
	// Source is a free-form note about where the trace came from (a file
	// path, a workload name).
	Source string
	// ProgramDigest and SpecDigest are FNV-1a 64 digests of the program and
	// specification encodings — cheap identity for diffing and corpus
	// bookkeeping. The reader verifies them against the decoded content.
	ProgramDigest uint64
	SpecDigest    uint64
}

// AtomicSet returns the specification as a predicate over methods.
func (h *Header) AtomicSet() func(vm.MethodID) bool {
	set := make(map[vm.MethodID]bool, len(h.Atomic))
	for _, m := range h.Atomic {
		set[m] = true
	}
	return func(m vm.MethodID) bool { return set[m] }
}

// AtomicNames resolves the specification to method names, in ID order.
func (h *Header) AtomicNames() []string {
	names := make([]string, 0, len(h.Atomic))
	for _, m := range h.Atomic {
		names = append(names, h.Program.MethodName(m))
	}
	return names
}

// Data is one fully decoded trace: everything needed to replay, plus the
// trailer's event counts.
type Data struct {
	Header Header
	Events []Event
	// Counts is the trailer's per-kind tally, already verified against the
	// decoded events.
	Counts vm.EventCounts
	// Complete reports whether the recorded execution ran to completion
	// (the stream ends with a program-end event).
	Complete bool
	// blocked is the blocked-set arena that EvBlockedSet events point
	// into. A copy of the Data shares it.
	blocked []vm.ThreadID
}

// BlockedSet returns the threads an EvBlockedSet event of d marks blocked,
// in the order recorded (ascending, as the Recorder writes them). The
// slice aliases d's arena: do not modify it. Any other event has no set.
func (d *Data) BlockedSet(ev Event) []vm.ThreadID {
	if ev.Kind != EvBlockedSet || int(ev.set) >= len(d.blocked) {
		return nil
	}
	at := int(ev.set) + 1
	return d.blocked[at : at+int(d.blocked[ev.set])]
}

// NewBlockedSet stores a copy of ts in d's blocked-set arena and returns
// the EvBlockedSet event that refers to it, for d.Events or the Events of
// a copy of d made afterwards. Copies share the arena, so build sets
// through one copy only.
func (d *Data) NewBlockedSet(ts []vm.ThreadID) Event {
	ev := Event{Kind: EvBlockedSet}
	if len(ts) > 0 {
		off, err := d.arenaSet(len(ts))
		if err != nil {
			panic(err)
		}
		ev.set = off
		d.blocked = append(d.blocked, ts...)
	}
	return ev
}

// arenaSet appends the size entry of an n-thread set to the arena and
// returns its offset; the caller appends the n threads. Offset 0 is the
// shared empty set, reserved the first time the arena is used.
func (d *Data) arenaSet(n int) (uint32, error) {
	if len(d.blocked) == 0 {
		d.blocked = append(d.blocked, 0)
	}
	if uint64(len(d.blocked))+uint64(n) >= math.MaxUint32 {
		return 0, fmt.Errorf("%w: blocked sets exceed 2^32 threads in all", ErrCorrupt)
	}
	off := uint32(len(d.blocked))
	d.blocked = append(d.blocked, vm.ThreadID(n))
	return off, nil
}
