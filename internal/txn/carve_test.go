package txn

import (
	"math/rand"
	"slices"
	"testing"

	"doublechecker/internal/vm"
)

// TestCarvedLogsMatchReference drives logging managers on 2–6 threads
// through regular and unary transactions, EdgeSink cuts, cross edges that
// interrupt merging, bursts that outgrow a chunk, and collections. It keeps
// its own append-built copy of every transaction's log, and compares each
// log with it when Collect sweeps the transaction or, for the survivors, at
// the end. A carve that overlaps an earlier transaction's entries rewrites
// them, and the comparison names the transaction. The copy numbers each
// entry's field as Manager.Var must: densely from 0, in the order Record
// first sees each (obj, field, sync), elided or not.
func TestCarvedLogsMatchReference(t *testing.T) {
	var outgrown, midChunk int
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		threads := 2 + rng.Intn(5)
		m := NewManager(true, nil, nil)
		ref := make(map[*Txn][]LogEntry)
		type fieldRef struct {
			obj   vm.ObjectID
			field vm.FieldID
			sync  bool
		}
		vars := make(map[fieldRef]uint32)
		check := func(tx *Txn, when string) {
			if !slices.Equal(tx.Log, ref[tx]) {
				t.Fatalf("seed %d: %s's log %s differs from its appended copy:\ngot  %v\nwant %v",
					seed, tx, when, tx.Log, ref[tx])
			}
		}
		m.OnSweep(func(tx *Txn) {
			check(tx, "at its sweep")
			delete(ref, tx)
		})
		seen := func(tx *Txn) {
			if _, ok := ref[tx]; ok {
				return
			}
			ref[tx] = nil
			if cap(tx.Log) < chunkEntries {
				midChunk++
			}
		}
		var seq uint64
		fresh := vm.ObjectID(100) // objects no access touched yet: never elided
		record := func(th vm.ThreadID, obj vm.ObjectID) {
			seq++
			field, write, sync := vm.FieldID(rng.Intn(2)), rng.Intn(2) == 0, rng.Intn(8) == 0
			v, ok := vars[fieldRef{obj, field, sync}]
			if !ok {
				v = uint32(len(vars))
				vars[fieldRef{obj, field, sync}] = v
			}
			before := m.Stats().LogEntries
			tx := m.Record(th, obj, field, write, sync, seq)
			seen(tx)
			if m.Stats().LogEntries != before {
				ref[tx] = append(ref[tx], LogEntry{Obj: obj, Field: field, Write: write, Sync: sync, Var: v, Seq: seq})
			}
		}
		inTx := make([]bool, threads)
		for op := 0; op < 4000; op++ {
			th := vm.ThreadID(rng.Intn(threads))
			other := vm.ThreadID(rng.Intn(threads))
			switch r := rng.Intn(100); {
			case r < 55:
				record(th, vm.ObjectID(rng.Intn(4)))
			case r < 57:
				// A burst longer than a chunk.
				for i := 0; i < chunkEntries+rng.Intn(chunkEntries); i++ {
					fresh++
					record(th, fresh)
				}
			case r < 67:
				if inTx[th] {
					m.EndRegular(th)
				} else {
					seen(m.BeginRegular(th, vm.MethodID(rng.Intn(3)+1)))
				}
				inTx[th] = !inTx[th]
			case r < 82:
				// An incoming edge: cuts a merged unary first.
				if src := m.EdgeSource(other); src != nil && other != th {
					sink := m.EdgeSink(th)
					seen(sink)
					m.AddCrossEdge(src, sink)
				}
			case r < 92:
				// An outgoing edge interrupts the source's merging.
				if other != th {
					src, dst := m.Current(th), m.Current(other)
					seen(src)
					seen(dst)
					m.AddCrossEdge(src, dst)
				}
			default:
				m.Collect(nil)
			}
		}
		for tx := range ref {
			check(tx, "at the end")
			if len(tx.Log) > chunkEntries {
				outgrown++
			}
		}
	}
	if outgrown == 0 || midChunk == 0 {
		t.Fatalf("%d logs outgrew a chunk and %d carves began mid-chunk; both must be exercised", outgrown, midChunk)
	}
}
