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
