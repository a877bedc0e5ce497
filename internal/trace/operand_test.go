package trace

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"doublechecker/internal/vm"
)

// accessTrace hand-builds a trace of a one-thread, one-object program: its
// one event chunk starts thread 0, which then writes object 0 once per
// field operand, advancing the clock by the matching delta. The trailer
// matches the chunk's counts, so only the operands can make it undecodable.
func accessTrace(t testing.TB, fields, deltas []uint64) []byte {
	t.Helper()
	b := vm.NewBuilder("operands")
	obj := b.Object()
	b.Thread(b.Method("main").Write(obj, 0))
	var out bytes.Buffer
	if _, err := NewWriter(&out, Header{Program: b.MustBuild()}); err != nil {
		t.Fatal(err)
	}
	var ev buf
	ev.byte(opThreadStart)
	ev.uvarint(0)
	for i, f := range fields {
		ev.byte(opAccessBase | byte(vm.ClassField)<<1 | 1)
		ev.uvarint(0)
		ev.uvarint(0)
		ev.uvarint(f)
		ev.uvarint(deltas[i])
	}
	var trailer buf
	encodeCounts(&trailer, vm.EventCounts{ThreadStarts: 1, FieldAccesses: uint64(len(fields))})
	if err := writeChunk(&out, ev.b); err != nil {
		t.Fatal(err)
	}
	if err := writeEndMarker(&out); err != nil {
		t.Fatal(err)
	}
	if err := writeChunk(&out, trailer.b); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// lastAccess keeps the last access replayed into it.
type lastAccess struct {
	vm.NopInst
	a vm.Access
}

func (l *lastAccess) Access(a vm.Access) { l.a = a }

// TestReaderRejectsUnwritableOperands: the reader accepts only operands the
// writer can produce. A field wider than int32 would wrap into another
// field, and a clock delta that overflows the access clock would move it
// backwards; both are corrupt. The largest field and the largest clock
// still decode.
func TestReaderRejectsUnwritableOperands(t *testing.T) {
	cases := []struct {
		name    string
		fields  []uint64
		deltas  []uint64
		corrupt bool
	}{
		{"field-max-int32", []uint64{math.MaxInt32}, []uint64{1}, false},
		{"field-alias", []uint64{1<<32 + 3}, []uint64{1}, true},
		{"field-negative", []uint64{1 << 31}, []uint64{1}, true},
		{"clock-max", []uint64{0, 0}, []uint64{10, math.MaxUint64 - 10}, false},
		{"clock-wrap", []uint64{0, 0}, []uint64{10, math.MaxUint64 - 4}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := accessTrace(t, tc.fields, tc.deltas)
			d, err := Read(bytes.NewReader(raw))
			if tc.corrupt {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("got error %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("valid operands rejected: %v", err)
			}
			var got lastAccess
			if err := Replay(context.Background(), d, &got); err != nil {
				t.Fatal(err)
			}
			want := vm.Access{Field: vm.FieldID(tc.fields[len(tc.fields)-1]),
				Write: true, Seq: tc.deltas[0]}
			if len(tc.deltas) > 1 {
				want.Seq = math.MaxUint64
			}
			if got.a != want {
				t.Fatalf("last access decoded as %v, want %v", got.a, want)
			}
		})
	}
}

// objectsTrace hand-builds a trace whose header declares a one-thread
// program of numObjects objects, encoded as NewWriter encodes a header but
// without validating the program. Its one event chunk starts thread 0,
// which then writes field 0 of object obj three times.
func objectsTrace(t testing.TB, numObjects int, obj uint64) []byte {
	t.Helper()
	prog := &vm.Program{
		Name:       "objects",
		NumObjects: numObjects,
		Methods:    []*vm.Method{{ID: 0, Name: "main"}},
		Threads:    []vm.ThreadDecl{{ID: 0, Entry: 0, AutoStart: true}},
	}
	var progEnc, spec, payload buf
	encodeProgram(&progEnc, prog)
	spec.uvarint(0) // no atomic methods
	payload.uvarint(uint64(progEnc.len()))
	payload.bytes(progEnc.b)
	payload.bytes(spec.b)
	payload.varint(0)  // seed
	payload.string("") // scheduler
	payload.string("") // source
	payload.uvarint(digest64(progEnc.b))
	payload.uvarint(digest64(spec.b))
	var ver, ev, trailer buf
	ver.uvarint(Version)
	ev.byte(opThreadStart)
	ev.uvarint(0)
	for i := 0; i < 3; i++ {
		ev.byte(opAccessBase | byte(vm.ClassField)<<1 | 1)
		ev.uvarint(0)
		ev.uvarint(obj)
		ev.uvarint(0)
		ev.uvarint(1)
	}
	encodeCounts(&trailer, vm.EventCounts{ThreadStarts: 1, FieldAccesses: 3})
	out := bytes.NewBufferString(Magic)
	out.Write(ver.b)
	for _, err := range []error{writeChunk(out, payload.b), writeChunk(out, ev.b), writeEndMarker(out), writeChunk(out, trailer.b)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestReaderRejectsObjectCountsOutsideObjectIDs: a header whose program
// declares a negative object count, or more objects and thread handles than
// int32 IDs can name, is corrupt. Before vm.Program.Validate rejected them,
// a count of -5 wrapped the reader's object-range check, and the trace
// decoded with its accesses to object 100,000,000 intact.
func TestReaderRejectsObjectCountsOutsideObjectIDs(t *testing.T) {
	cases := []struct {
		name       string
		numObjects int
		obj        uint64
		corrupt    bool
	}{
		{"one-object", 1, 0, false},
		{"negative", -5, 100_000_000, true},
		{"handle-past-int32", math.MaxInt32, 0, true},
		{"past-int32", 1 << 31, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(objectsTrace(t, tc.numObjects, tc.obj)))
			switch {
			case tc.corrupt && !errors.Is(err, ErrCorrupt):
				t.Fatalf("got error %v, want ErrCorrupt", err)
			case !tc.corrupt && err != nil:
				t.Fatalf("valid trace rejected: %v", err)
			}
		})
	}
}
