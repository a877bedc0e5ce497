package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"doublechecker/internal/vm"
)

// ReadFile decodes the trace file at path.
func ReadFile(path string) (*Data, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// Read decodes a complete trace from r, verifying magic, version, per-chunk
// CRCs, header digests, and the trailer's event counts against the decoded
// stream. Errors wrap ErrBadMagic, ErrVersion, ErrCorrupt, or ErrTruncated.
func Read(r io.Reader) (*Data, error) {
	br := bufio.NewReader(r)
	// One buffer holds each chunk's payload in turn: no decoder keeps a
	// reference into a payload once it returns.
	hdr, buf, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	data := &Data{Header: *hdr}
	st := decodeState{
		nThreads: len(hdr.Program.Threads),
		nMethods: len(hdr.Program.Methods),
		nObjects: hdr.Program.TotalObjects(),
	}
	for {
		payload, ok, err := readChunk(br, br, buf)
		if err != nil {
			return nil, fmt.Errorf("events: %w", err)
		}
		if !ok {
			break // end marker
		}
		buf = payload
		if err := st.decodeEvents(payload, data); err != nil {
			return nil, err
		}
	}

	trailer, ok, err := readChunk(br, br, buf)
	if err != nil {
		return nil, fmt.Errorf("trailer: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("%w: missing counts trailer", ErrCorrupt)
	}
	td := &dec{b: trailer}
	counts, err := decodeCounts(td)
	if err != nil {
		return nil, fmt.Errorf("trailer: %w", err)
	}
	if counts != st.counts {
		return nil, fmt.Errorf("%w: trailer counts {%v} disagree with decoded stream {%v}",
			ErrCorrupt, counts, st.counts)
	}
	data.Counts = counts
	data.Complete = len(data.Events) > 0 &&
		data.Events[len(data.Events)-1].Kind == EvProgramEnd
	return data, nil
}

// ReadHeader decodes only the header of a trace — enough for `dctrace info`
// on large files without materializing the event stream.
func ReadHeader(r io.Reader) (*Header, error) {
	hdr, _, err := readHeader(bufio.NewReader(r))
	return hdr, err
}

// readHeader decodes the magic, the version and the header chunk. It also
// returns the header chunk's payload buffer, which Read reuses for the
// chunks that follow.
func readHeader(br *bufio.Reader) (*Header, []byte, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: file shorter than magic", ErrBadMagic)
	}
	if string(magic[:]) != Magic {
		return nil, nil, fmt.Errorf("%w: got %q", ErrBadMagic, magic[:])
	}
	version, err := readUvarint(br)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: unreadable version", ErrCorrupt)
	}
	if version != Version {
		return nil, nil, fmt.Errorf("%w: file is v%d, this reader understands v%d",
			ErrVersion, version, Version)
	}
	payload, ok, err := readChunk(br, br, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("header: %w", err)
	}
	if !ok {
		return nil, nil, fmt.Errorf("%w: missing header chunk", ErrCorrupt)
	}
	hdr, err := decodeHeader(payload)
	if err != nil {
		return nil, nil, err
	}
	hdr.Version = int(version)
	return hdr, payload, nil
}

// PeekHeader decodes only the header from r without consuming the trace:
// it returns the header plus a replay reader that yields the stream from
// the first byte, as if r had never been read. Callers that need the
// header early — the server computes a cache key and a breaker key before
// paying full decode cost — read the header here and hand the replay
// reader to Read. The replay reader is returned even on error, so a caller
// can still salvage or log the raw bytes of an undecodable upload.
//
// The implementation tees everything the header decode pulls off r
// (including the internal reader's read-ahead) into a buffer and stitches
// it back in front of the unread remainder.
func PeekHeader(r io.Reader) (*Header, io.Reader, error) {
	var consumed bytes.Buffer
	hdr, err := ReadHeader(io.TeeReader(r, &consumed))
	rest := io.MultiReader(bytes.NewReader(consumed.Bytes()), r)
	if err != nil {
		return nil, rest, err
	}
	return hdr, rest, nil
}

func readUvarint(br *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(br)
}

func decodeHeader(payload []byte) (*Header, error) {
	d := &dec{b: payload}
	progLen, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if progLen > uint64(d.remaining()) {
		return nil, fmt.Errorf("%w: header program length %d exceeds payload", ErrCorrupt, progLen)
	}
	progEnc := d.b[d.off : d.off+int(progLen)]
	pd := &dec{b: progEnc}
	prog, err := decodeProgram(pd)
	if err != nil {
		return nil, fmt.Errorf("header program: %w", err)
	}
	if pd.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after program encoding", ErrCorrupt, pd.remaining())
	}
	d.off += int(progLen)
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("%w: embedded program invalid: %v", ErrCorrupt, err)
	}

	specStart := d.off
	nAtomic, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("header spec: %w", err)
	}
	hdr := &Header{Program: prog}
	for i := uint64(0); i < nAtomic; i++ {
		m, err := d.uvarint()
		if err != nil {
			return nil, fmt.Errorf("header spec: %w", err)
		}
		if m >= uint64(len(prog.Methods)) {
			return nil, fmt.Errorf("%w: atomic method %d out of range", ErrCorrupt, m)
		}
		hdr.Atomic = append(hdr.Atomic, vm.MethodID(m))
	}
	specEnc := d.b[specStart:d.off]

	if hdr.Seed, err = d.varint(); err != nil {
		return nil, fmt.Errorf("header seed: %w", err)
	}
	if hdr.Sched, err = d.string(); err != nil {
		return nil, fmt.Errorf("header sched: %w", err)
	}
	if hdr.Source, err = d.string(); err != nil {
		return nil, fmt.Errorf("header source: %w", err)
	}
	if hdr.ProgramDigest, err = d.uvarint(); err != nil {
		return nil, fmt.Errorf("header digest: %w", err)
	}
	if hdr.SpecDigest, err = d.uvarint(); err != nil {
		return nil, fmt.Errorf("header digest: %w", err)
	}
	if got := digest64(progEnc); got != hdr.ProgramDigest {
		return nil, fmt.Errorf("%w: program digest mismatch (got %016x, header says %016x)",
			ErrCorrupt, got, hdr.ProgramDigest)
	}
	if got := digest64(specEnc); got != hdr.SpecDigest {
		return nil, fmt.Errorf("%w: spec digest mismatch (got %016x, header says %016x)",
			ErrCorrupt, got, hdr.SpecDigest)
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after header", ErrCorrupt, d.remaining())
	}
	return hdr, nil
}

// decodeState carries the cross-chunk decode context: the running access
// clock, re-tallied counts, and the ID ranges used for validation.
type decodeState struct {
	seq      uint64
	counts   vm.EventCounts
	nThreads int
	nMethods int
	nObjects int
	ended    bool
}

// minEvents is the decoded stream's first capacity. From there Data.Events
// doubles as events arrive: no count the trace declares sizes it.
const minEvents = 1 << 10

func (st *decodeState) thread(d *dec) (vm.ThreadID, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v >= uint64(st.nThreads) {
		return 0, fmt.Errorf("%w: thread %d out of range (program has %d)", ErrCorrupt, v, st.nThreads)
	}
	return vm.ThreadID(v), nil
}

func (st *decodeState) method(d *dec) (vm.MethodID, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v >= uint64(st.nMethods) {
		return 0, fmt.Errorf("%w: method %d out of range (program has %d)", ErrCorrupt, v, st.nMethods)
	}
	return vm.MethodID(v), nil
}

// decodeEvents decodes one event chunk onto data.Events. Nothing decoded
// keeps a reference into payload, so the caller reuses its buffer for the
// next chunk.
func (st *decodeState) decodeEvents(payload []byte, data *Data) error {
	d := &dec{b: payload}
	events := data.Events
	for d.remaining() > 0 {
		if st.ended {
			return fmt.Errorf("%w: events after program-end", ErrCorrupt)
		}
		op, err := d.byte()
		if err != nil {
			return err
		}
		var ev Event
		switch {
		case op == opThreadStart, op == opThreadExit:
			if ev.Thread, err = st.thread(d); err != nil {
				return err
			}
			if op == opThreadStart {
				ev.Kind = EvThreadStart
				st.counts.ThreadStarts++
			} else {
				ev.Kind = EvThreadExit
				st.counts.ThreadExits++
			}
		case op == opTxBegin, op == opTxEnd:
			if ev.Thread, err = st.thread(d); err != nil {
				return err
			}
			if ev.Method, err = st.method(d); err != nil {
				return err
			}
			if op == opTxBegin {
				ev.Kind = EvTxBegin
				st.counts.TxBegins++
			} else {
				ev.Kind = EvTxEnd
				st.counts.TxEnds++
			}
		case op == opProgramEnd:
			st.ended = true
			ev.Kind = EvProgramEnd
		case op == opBlockedSet:
			n, err := d.uvarint()
			if err != nil {
				return err
			}
			if n > uint64(st.nThreads) {
				return fmt.Errorf("%w: blocked set of %d threads (program has %d)",
					ErrCorrupt, n, st.nThreads)
			}
			ev.Kind = EvBlockedSet
			if n > 0 {
				if ev.set, err = data.arenaSet(int(n)); err != nil {
					return err
				}
				for i := uint64(0); i < n; i++ {
					t, err := st.thread(d)
					if err != nil {
						return err
					}
					data.blocked = append(data.blocked, t)
				}
			}
		case op >= opAccessBase && op <= opAccessMax:
			bits := op - opAccessBase
			ev.Kind = EvAccess
			ev.Class = vm.AccessClass(bits >> 1)
			ev.Write = bits&1 != 0
			if ev.Thread, err = st.thread(d); err != nil {
				return err
			}
			obj, err := d.uvarint()
			if err != nil {
				return err
			}
			if obj >= uint64(st.nObjects) {
				return fmt.Errorf("%w: object %d out of range (program has %d)",
					ErrCorrupt, obj, st.nObjects)
			}
			field, err := d.uvarint()
			if err != nil {
				return err
			}
			// Fields are non-negative int32s (vm.Program.Validate); a
			// wider value would wrap into another field.
			if field > math.MaxInt32 {
				return fmt.Errorf("%w: field %d out of range", ErrCorrupt, field)
			}
			delta, err := d.uvarint()
			if err != nil {
				return err
			}
			if delta == 0 {
				return fmt.Errorf("%w: access clock did not advance", ErrCorrupt)
			}
			if delta > math.MaxUint64-st.seq {
				return fmt.Errorf("%w: access clock overflows (%d + %d)", ErrCorrupt, st.seq, delta)
			}
			st.seq += delta
			switch ev.Class {
			case vm.ClassField:
				st.counts.FieldAccesses++
			case vm.ClassArray:
				st.counts.ArrayAccesses++
			case vm.ClassSync:
				st.counts.SyncAccesses++
			}
			ev.Obj, ev.Field, ev.Seq = vm.ObjectID(obj), vm.FieldID(field), st.seq
		default:
			return fmt.Errorf("%w: unknown opcode 0x%02x", ErrCorrupt, op)
		}
		if len(events) == cap(events) {
			events = slices.Grow(events, max(len(events), minEvents))
		}
		events = append(events, ev)
	}
	data.Events = events
	return nil
}
