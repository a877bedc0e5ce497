package txn

import (
	"testing"

	"doublechecker/internal/cost"
)

func newMgr(logging bool) *Manager {
	return NewManager(logging, nil, nil)
}

func TestBeginEndRegular(t *testing.T) {
	m := newMgr(false)
	tx := m.BeginRegular(0, 3)
	if tx.Unary || tx.Method != 3 || tx.Finished {
		t.Errorf("bad regular txn: %+v", tx)
	}
	if m.Current(0) != tx {
		t.Error("current should be the open regular txn")
	}
	m.EndRegular(0)
	if !tx.Finished {
		t.Error("EndRegular should finish the txn")
	}
	// Next access context is a fresh unary with an intra-thread edge.
	u := m.Current(0)
	if !u.Unary || u == tx {
		t.Errorf("expected fresh unary, got %v", u)
	}
	if tx.EdgeTo(u) == nil || tx.EdgeTo(u).Cross {
		t.Error("expected intra-thread edge from regular to unary")
	}
}

func TestUnaryMerging(t *testing.T) {
	m := newMgr(false)
	u1 := m.Current(0)
	u2 := m.Current(0)
	if u1 != u2 {
		t.Error("consecutive unary accesses should merge")
	}
	// A cross-thread edge interrupts merging.
	other := m.Current(1)
	m.AddCrossEdge(other, u1)
	u3 := m.Current(0)
	if u3 == u1 {
		t.Error("interrupted unary must not merge further accesses")
	}
	if !u1.Finished {
		t.Error("retired unary should be finished")
	}
	st := m.Stats()
	if st.UnaryTxns != 3 {
		t.Errorf("unary txns = %d, want 3", st.UnaryTxns)
	}
}

func TestOutgoingEdgeAlsoInterrupts(t *testing.T) {
	m := newMgr(false)
	u1 := m.Current(0)
	m.AddCrossEdge(u1, m.Current(1))
	if m.Current(0) == u1 {
		t.Error("outgoing cross edge must interrupt unary merging")
	}
}

func TestRegularNotInterruptedByEdges(t *testing.T) {
	m := newMgr(false)
	tx := m.BeginRegular(0, 1)
	m.AddCrossEdge(m.Current(1), tx)
	if m.Current(0) != tx {
		t.Error("regular transaction persists across edges until EndRegular")
	}
}

// TestEdgeDedupAndMarks: two occurrences of one dependence share an Edge,
// and each endpoint counts both as modelled special log entries (marks).
func TestEdgeDedupAndMarks(t *testing.T) {
	m := newMgr(true)
	a := m.BeginRegular(0, 1)
	b := m.BeginRegular(1, 2)
	e1 := m.AddCrossEdge(a, b)
	m.Record(1, 5, 0, true, false, 10)
	e2 := m.AddCrossEdge(a, b)
	if e1 != e2 {
		t.Error("same-pair edges should dedupe")
	}
	if a.occs != 2 || b.occs != 2 {
		t.Errorf("occurrences counted: src %d dst %d, want 2 each", a.occs, b.occs)
	}
	if m.Stats().CrossEdges != 1 || m.Stats().CrossOccs != 2 {
		t.Errorf("stats: %+v", m.Stats())
	}
}

func TestSelfEdgeIgnored(t *testing.T) {
	m := newMgr(false)
	a := m.Current(0)
	if e := m.AddCrossEdge(a, a); e != nil {
		t.Error("self edge should be ignored")
	}
}

func TestIntraThreadEdgeChain(t *testing.T) {
	m := newMgr(false)
	t1 := m.BeginRegular(0, 1)
	m.EndRegular(0)
	t2 := m.BeginRegular(0, 2)
	m.EndRegular(0)
	if e := t1.EdgeTo(t2); e == nil || e.Cross {
		t.Error("consecutive regular txns need an intra-thread edge")
	}
}

func TestRecordAndElision(t *testing.T) {
	m := newMgr(true)
	tx := m.BeginRegular(0, 1)
	m.Record(0, 1, 0, false, false, 1) // rd o1.0: recorded
	m.Record(0, 1, 0, false, false, 2) // duplicate read: elided
	m.Record(0, 1, 0, true, false, 3)  // write after read: recorded
	m.Record(0, 1, 0, true, false, 4)  // duplicate write: elided
	m.Record(0, 1, 0, false, false, 5) // read after write: elided
	m.Record(0, 1, 1, false, false, 6) // different field: recorded
	if len(tx.Log) != 3 {
		t.Fatalf("log = %v, want 3 entries", tx.Log)
	}
	st := m.Stats()
	if st.LogEntries != 3 || st.LogElided != 3 {
		t.Errorf("entries=%d elided=%d, want 3/3", st.LogEntries, st.LogElided)
	}
}

func TestElisionWindowResetByEdge(t *testing.T) {
	m := newMgr(true)
	tx := m.BeginRegular(0, 1)
	m.Record(0, 1, 0, false, false, 1)
	// Cross-thread edge bumps the window: the repeat read must be recorded
	// (it can source a new dependence).
	m.AddCrossEdge(m.Current(1), tx)
	m.Record(0, 1, 0, false, false, 2)
	if len(tx.Log) != 2 {
		t.Errorf("log = %v, want 2 entries after edge reset", tx.Log)
	}
}

func TestElisionWindowResetByNewTxn(t *testing.T) {
	m := newMgr(true)
	m.BeginRegular(0, 1)
	m.Record(0, 1, 0, true, false, 1)
	m.EndRegular(0)
	tx2 := m.BeginRegular(0, 2)
	m.Record(0, 1, 0, true, false, 2)
	if len(tx2.Log) != 1 {
		t.Error("new transaction must not inherit the elision window")
	}
}

func TestElisionPerThread(t *testing.T) {
	m := newMgr(true)
	a := m.BeginRegular(0, 1)
	b := m.BeginRegular(1, 2)
	m.Record(0, 1, 0, false, false, 1)
	m.Record(1, 1, 0, false, false, 2) // other thread: must be recorded
	if len(a.Log) != 1 || len(b.Log) != 1 {
		t.Errorf("per-thread elision broken: a=%v b=%v", a.Log, b.Log)
	}
}

// TestElisionKeepsSyncApartFromFieldZero: the VM emits a monitor's acquire
// (sync read) and release (sync write) on field 0, so a data write of field
// 0 of the same object must not elide them: PCD keeps sync accesses in their
// own metadata space, and needs both to see the lock dependence.
func TestElisionKeepsSyncApartFromFieldZero(t *testing.T) {
	m := newMgr(true)
	tx := m.BeginRegular(0, 1)
	m.Record(0, 1, 0, true, false, 1) // wr o1.0
	m.Record(0, 1, 0, false, true, 2) // acquire o1
	m.Record(0, 1, 0, true, true, 3)  // release o1
	if len(tx.Log) != 3 || !tx.Log[1].Sync || !tx.Log[2].Sync {
		t.Fatalf("log = %v, want the data write and both sync accesses", tx.Log)
	}
	if st := m.Stats(); st.LogElided != 0 {
		t.Errorf("elided %d accesses, want 0", st.LogElided)
	}
}

func TestNoLoggingNoLog(t *testing.T) {
	m := newMgr(false)
	tx := m.BeginRegular(0, 1)
	m.Record(0, 1, 0, true, false, 1)
	if len(tx.Log) != 0 {
		t.Error("logging disabled should record nothing")
	}
}

func TestOnFinishCallback(t *testing.T) {
	m := newMgr(false)
	var finished []*Txn
	m.OnFinish(func(tx *Txn) { finished = append(finished, tx) })
	tx := m.BeginRegular(0, 1)
	m.EndRegular(0)
	if len(finished) != 1 || finished[0] != tx {
		t.Errorf("finish callback: %v", finished)
	}
	u := m.Current(0)
	m.AddCrossEdge(m.Current(1), u)
	m.Current(0) // retires u
	if len(finished) != 2 || finished[1] != u {
		t.Errorf("unary retirement should fire callback: %v", finished)
	}
}

func TestThreadExitFinishesCurrent(t *testing.T) {
	m := newMgr(false)
	u := m.Current(0)
	m.ThreadExit(0)
	if !u.Finished {
		t.Error("thread exit must finish the current transaction")
	}
}

func TestCollectSweepsUnreachable(t *testing.T) {
	m := newMgr(true)
	// Build: t0 runs three sequential regular txns; only the last is
	// current. With no extra roots, predecessors are unreachable (intra
	// edges point forward, so old->new keeps nothing alive backwards).
	t1 := m.BeginRegular(0, 1)
	m.Record(0, 1, 0, true, false, 1)
	m.EndRegular(0)
	t2 := m.BeginRegular(0, 2)
	m.EndRegular(0)
	t3 := m.BeginRegular(0, 3)

	if m.Live() != 3 {
		t.Fatalf("live = %d, want 3", m.Live())
	}
	swept := m.Collect(nil)
	if swept != 2 {
		t.Fatalf("swept = %d, want 2 (t1, t2)", swept)
	}
	if t1.Log != nil || t1.Out != nil {
		t.Error("swept txn should drop its log and edges")
	}
	_ = t2
	if m.Live() != 1 || !t3.Finished == false && false {
		t.Errorf("live = %d, want 1", m.Live())
	}
}

func TestCollectKeepsExtraRoots(t *testing.T) {
	m := newMgr(false)
	t1 := m.BeginRegular(0, 1)
	m.EndRegular(0)
	m.BeginRegular(0, 2)
	if swept := m.Collect([]*Txn{t1}); swept != 0 {
		t.Errorf("swept = %d, want 0 with t1 rooted", swept)
	}
}

func TestCollectKeepsForwardReachable(t *testing.T) {
	m := newMgr(false)
	// a -> b where b is current on t1: a must survive only if reachable
	// from a root. a is NOT a root and nothing points to it, so it is swept
	// even though it points at the live b.
	a := m.Current(0)
	b := m.Current(1)
	m.AddCrossEdge(a, b)
	m.Current(0) // retire a (interrupted); fresh unary becomes t0's current
	// Now a is reachable from t0's current? No: edges go a->b and
	// a->freshUnary? No — intra edge goes a -> fresh. Nothing points to a.
	if swept := m.Collect(nil); swept != 1 {
		t.Errorf("swept = %d, want exactly a", swept)
	}
}

func TestCollectCycleReachableFromRoot(t *testing.T) {
	m := newMgr(false)
	a := m.BeginRegular(0, 1)
	b := m.BeginRegular(1, 2)
	m.AddCrossEdge(a, b)
	m.AddCrossEdge(b, a)
	m.EndRegular(0)
	m.EndRegular(1)
	// Both finished regulars are still referenced as thread currents.
	if swept := m.Collect(nil); swept != 0 {
		t.Errorf("swept = %d, want 0 while roots reference the cycle", swept)
	}
}

func TestMeterAccounting(t *testing.T) {
	model := cost.Default()
	model.GCTriggerBytes = 0
	meter := cost.NewMeter(model)
	m := NewManager(true, nil, meter)
	tx := m.BeginRegular(0, 1)
	m.Record(0, 1, 0, true, false, 1)
	if meter.LiveBytes() == 0 {
		t.Error("allocations should be metered")
	}
	m.EndRegular(0)
	m.BeginRegular(0, 2)
	before := meter.LiveBytes()
	m.Collect(nil) // sweeps tx
	if meter.LiveBytes() >= before {
		t.Error("collection should free metered bytes")
	}
	_ = tx
}

func TestSuccsAndStrings(t *testing.T) {
	m := newMgr(false)
	a := m.BeginRegular(0, 1)
	b := m.BeginRegular(1, 2)
	m.AddCrossEdge(a, b)
	if len(a.Succs()) != 1 || a.Succs()[0] != b {
		t.Errorf("succs = %v", a.Succs())
	}
	if a.String() == "" || (LogEntry{}).String() == "" {
		t.Error("empty strings")
	}
}

func TestClockStampsStartEnd(t *testing.T) {
	var now uint64
	m := NewManager(false, func() uint64 { return now }, nil)
	now = 5
	tx := m.BeginRegular(0, 1)
	if tx.StartSeq != 5 {
		t.Errorf("start = %d, want 5", tx.StartSeq)
	}
	now = 9
	m.EndRegular(0)
	if tx.EndSeq != 9 {
		t.Errorf("end = %d, want 9", tx.EndSeq)
	}
}
