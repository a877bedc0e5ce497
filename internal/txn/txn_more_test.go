package txn

import (
	"testing"

	"doublechecker/internal/cost"
)

func TestEdgeSinkSplitsMergedUnary(t *testing.T) {
	m := newMgr(true)
	u := m.Current(0)
	m.Record(0, 1, 0, true, false, 1) // unary now has an access
	sink := m.EdgeSink(0)
	if sink == u {
		t.Fatal("merged unary must split before receiving an incoming edge")
	}
	if !u.Finished {
		t.Error("split must retire the old unary")
	}
	if u.EdgeTo(sink) == nil {
		t.Error("program-order edge from old to fresh unary missing")
	}
	// A second edge for the same access reuses the fresh sink (no access
	// recorded yet).
	if m.EdgeSink(0) != sink {
		t.Error("fresh sink must be reused until an access is recorded")
	}
}

func TestEdgeSinkLeavesFreshUnaryAndRegulars(t *testing.T) {
	m := newMgr(true)
	u := m.Current(0)
	if m.EdgeSink(0) != u {
		t.Error("fresh unary (no accesses) must be its own sink")
	}
	r := m.BeginRegular(1, 2)
	m.Record(1, 1, 0, true, false, 1)
	if m.EdgeSink(1) != r {
		t.Error("regular transactions never split")
	}
}

func TestEdgeSourceSemantics(t *testing.T) {
	m := newMgr(false)
	if m.EdgeSource(0) != nil {
		t.Error("thread with no transactions has no edge source")
	}
	tx := m.BeginRegular(0, 1)
	if m.EdgeSource(0) != tx {
		t.Error("running regular is the source")
	}
	m.EndRegular(0)
	if m.EdgeSource(0) != tx {
		t.Error("finished-but-current regular remains the source")
	}
	m.ThreadExit(0)
	if m.EdgeSource(0) != tx {
		t.Error("exited thread's last transaction remains the source")
	}
}

// TestEdgeOccurrenceBytesExact: a logging manager meters each cross-edge
// occurrence as two special log entries, occBytes each, repeats on a
// deduplicated edge included, and a sweep frees each endpoint's share
// exactly; a manager that does not log meters none.
func TestEdgeOccurrenceBytesExact(t *testing.T) {
	for _, logging := range []bool{true, false} {
		model := cost.Default()
		model.GCTriggerBytes = 0
		meter := cost.NewMeter(model)
		m := NewManager(logging, nil, meter)
		a := m.BeginRegular(0, 1)
		b := m.BeginRegular(1, 2)
		var occ int64 // bytes per occurrence at each endpoint
		if logging {
			occ = occBytes
		}
		const n = 3
		for i := 0; i < n; i++ {
			want := 2 * occ
			if i == 0 {
				want += edgeBytes
			}
			before := meter.LiveBytes()
			m.AddCrossEdge(a, b)
			if got := meter.LiveBytes() - before; got != want {
				t.Errorf("logging %v, occurrence %d: %d bytes metered, want %d", logging, i, got, want)
			}
		}

		// Retire a alone: thread 1 keeps b current, so only a is swept. a
		// owns the cross edge and the program-order edge to its successor.
		m.EndRegular(0)
		m.BeginRegular(0, 3)
		before := meter.LiveBytes()
		if swept := m.Collect(nil); swept != 1 {
			t.Fatalf("logging %v: swept %d, want a alone", logging, swept)
		}
		if got, want := before-meter.LiveBytes(), txnBytes+2*edgeBytes+n*occ; got != want {
			t.Errorf("logging %v: sweeping the source freed %d bytes, want %d", logging, got, want)
		}
		// Then b, which owns only its program-order edge.
		m.EndRegular(1)
		m.BeginRegular(1, 4)
		before = meter.LiveBytes()
		if swept := m.Collect(nil); swept != 1 {
			t.Fatalf("logging %v: swept %d, want b alone", logging, swept)
		}
		if got, want := before-meter.LiveBytes(), txnBytes+edgeBytes+n*occ; got != want {
			t.Errorf("logging %v: sweeping the sink freed %d bytes, want %d", logging, got, want)
		}
		if got, want := meter.LiveBytes(), int64(2*txnBytes); got != want {
			t.Errorf("logging %v: %d live bytes left, want the two current transactions' %d", logging, got, want)
		}
	}
}

// TestSweepFreesOccurrenceBytes: a sweep frees the bytes metered for a
// logged edge's occurrences along with the logs and edges, leaving exactly
// the transactions still current.
func TestSweepFreesOccurrenceBytes(t *testing.T) {
	model := cost.Default()
	model.GCTriggerBytes = 0
	meter := cost.NewMeter(model)
	m := NewManager(true, nil, meter)
	a := m.BeginRegular(0, 1)
	b := m.BeginRegular(1, 2)
	for i := 0; i < 50; i++ {
		m.Record(1, 5, 0, true, false, uint64(10+i)) // advance b's log
		m.AddCrossEdge(a, b)                         // occurrence: two modelled entries
	}
	m.EndRegular(0)
	m.EndRegular(1)
	m.BeginRegular(0, 3)
	m.BeginRegular(1, 3)
	// a and b each have only an outgoing program-order edge to their
	// thread's new current transaction, and nothing reaches them.
	if swept := m.Collect(nil); swept != 2 {
		t.Fatalf("swept = %d, want a and b", swept)
	}
	if got, want := meter.LiveBytes(), int64(2*txnBytes); got != want {
		t.Errorf("live bytes %d after the sweep, want the two current transactions' %d", got, want)
	}
}

func TestDisableUnaryMerging(t *testing.T) {
	m := newMgr(false)
	m.DisableUnaryMerging()
	u1 := m.Current(0)
	m.Record(0, 1, 0, false, false, 1)
	u2 := m.Current(0)
	if u1 == u2 {
		t.Fatal("merging disabled: each access gets a fresh unary")
	}
	if !u1.Finished {
		t.Error("previous unary must be retired")
	}
}

func TestDisableElision(t *testing.T) {
	m := newMgr(true)
	m.DisableElision()
	tx := m.BeginRegular(0, 1)
	m.Record(0, 1, 0, false, false, 1)
	m.Record(0, 1, 0, false, false, 2)
	if len(tx.Log) != 2 {
		t.Errorf("log = %d entries, want 2 (no elision)", len(tx.Log))
	}
	if m.Stats().LogElided != 0 {
		t.Error("nothing may be elided")
	}
}

func TestAccessesCountIndependentOfLogging(t *testing.T) {
	m := newMgr(false) // no logging
	tx := m.BeginRegular(0, 1)
	m.Record(0, 1, 0, false, false, 1)
	m.Record(0, 1, 0, false, false, 2)
	if tx.Accesses() != 2 {
		t.Errorf("accesses = %d, want 2", tx.Accesses())
	}
	if len(tx.Log) != 0 {
		t.Error("no log entries without logging")
	}
}

func TestOnIntraEdgeCallback(t *testing.T) {
	m := newMgr(false)
	var got [][2]uint64
	m.OnIntraEdge(func(src, dst *Txn) { got = append(got, [2]uint64{src.ID, dst.ID}) })
	a := m.BeginRegular(0, 1)
	m.EndRegular(0)
	b := m.BeginRegular(0, 2)
	if len(got) != 1 || got[0] != [2]uint64{a.ID, b.ID} {
		t.Errorf("intra edge callback: %v", got)
	}
}

func TestAllReturnsLiveTxns(t *testing.T) {
	m := newMgr(false)
	m.BeginRegular(0, 1)
	m.EndRegular(0)
	m.BeginRegular(0, 2)
	if len(m.All()) != 2 || m.Live() != 2 {
		t.Errorf("all=%d live=%d", len(m.All()), m.Live())
	}
	m.Collect(nil)
	if m.Live() != 1 {
		t.Errorf("live after collect = %d", m.Live())
	}
}

func TestInterruptedAccessor(t *testing.T) {
	m := newMgr(false)
	u := m.Current(0)
	if u.Interrupted() {
		t.Error("fresh unary is not interrupted")
	}
	m.AddCrossEdge(m.Current(1), u)
	if !u.Interrupted() {
		t.Error("edge must interrupt")
	}
}
