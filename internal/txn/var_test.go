package txn

import (
	"math/rand"
	"testing"
	"unsafe"

	"doublechecker/internal/vm"
)

// TestVarNumbering: Var numbers each (obj, field, sync) densely from 0 in
// first-seen order, returns the same number for a key every time, and keeps
// a sync access apart from the object's field 0.
func TestVarNumbering(t *testing.T) {
	m := newMgr(true)
	type key struct {
		obj   vm.ObjectID
		field vm.FieldID
		sync  bool
	}
	want := make(map[key]uint32)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		k := key{vm.ObjectID(rng.Intn(40)), vm.FieldID(rng.Intn(3)), rng.Intn(4) == 0}
		w, ok := want[k]
		if !ok {
			w = uint32(len(want))
			want[k] = w
		}
		if got := m.Var(k.obj, k.field, k.sync); got != w {
			t.Fatalf("access %d: Var%+v = %d, want %d", i, k, got, w)
		}
	}
	if a, s := m.Var(7, 0, false), m.Var(7, 0, true); a == s {
		t.Errorf("field 0 and the sync access of object 7 share number %d", a)
	}
}

// TestElisionStatePerRecordedThread: a field's elision list holds one entry
// for each thread that recorded the field, and no other, so elision state
// grows with recorded (field, thread) pairs rather than fields × threads.
func TestElisionStatePerRecordedThread(t *testing.T) {
	m := newMgr(true)
	const threads = 6
	recorded := make(map[uint32]map[vm.ThreadID]bool)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		th := vm.ThreadID(rng.Intn(threads))
		switch rng.Intn(10) {
		case 0:
			// An incoming edge starts a new elision window for th.
			if src := vm.ThreadID(rng.Intn(threads)); src != th {
				m.AddCrossEdge(m.Current(src), m.EdgeSink(th))
			}
		case 1:
			m.BeginRegular(th, 1)
			m.EndRegular(th)
		default:
			// Thread th touches only objects th..th+2, so most fields are
			// recorded by a few threads, not all of them.
			obj := vm.ObjectID(int(th) + rng.Intn(3))
			field, sync := vm.FieldID(rng.Intn(2)), rng.Intn(5) == 0
			m.Record(th, obj, field, rng.Intn(2) == 0, sync, uint64(i+1))
			v := m.Var(obj, field, sync)
			if recorded[v] == nil {
				recorded[v] = make(map[vm.ThreadID]bool)
			}
			recorded[v][th] = true
		}
	}
	if len(m.elide) != len(recorded) {
		t.Fatalf("elision state for %d fields, want the %d recorded", len(m.elide), len(recorded))
	}
	pairs := 0
	for v, las := range m.elide {
		seen := make(map[vm.ThreadID]bool)
		for _, la := range las {
			if seen[la.th] {
				t.Fatalf("field %d: thread %d has two elision entries: %+v", v, la.th, las)
			}
			seen[la.th] = true
			if !recorded[uint32(v)][la.th] {
				t.Fatalf("field %d: entry for thread %d, which never recorded it", v, la.th)
			}
		}
		if len(las) != len(recorded[uint32(v)]) {
			t.Fatalf("field %d: %d elision entries, want one per recording thread (%d)", v, len(las), len(recorded[uint32(v)]))
		}
		pairs += len(las)
	}
	if pairs >= len(recorded)*threads {
		t.Fatalf("%d (field, thread) entries for %d fields and %d threads: the test does not tell the pairs from the product",
			pairs, len(recorded), threads)
	}
}

// TestNodeSizes pins the sizes the hot paths were laid out for: a Txn fills
// the 128-byte size class (the SCC engine's slot sits in the tail padding
// after the four bools), and a LogEntry stays 24 bytes with Var in the
// padding after Sync.
func TestNodeSizes(t *testing.T) {
	if s := unsafe.Sizeof(Txn{}); s != 128 {
		t.Errorf("Txn is %d bytes, want 128", s)
	}
	if s := unsafe.Sizeof(LogEntry{}); s != 24 {
		t.Errorf("LogEntry is %d bytes, want 24", s)
	}
}
