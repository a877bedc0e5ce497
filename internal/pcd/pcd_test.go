package pcd

import (
	"testing"

	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// env builds transactions and logs with a controllable clock, simulating
// what ICD hands to PCD.
type env struct {
	mgr *txn.Manager
	now uint64
}

func newEnv() *env {
	e := &env{}
	e.mgr = txn.NewManager(true, func() uint64 { e.now++; return e.now }, nil)
	return e
}

func (e *env) begin(t vm.ThreadID, m vm.MethodID) *txn.Txn { return e.mgr.BeginRegular(t, m) }
func (e *env) end(t vm.ThreadID)                           { e.mgr.EndRegular(t) }

func (e *env) access(t vm.ThreadID, obj vm.ObjectID, f vm.FieldID, write bool) {
	e.now++
	e.mgr.Record(t, obj, f, write, false, e.now)
}

// edge mimics the IDG edge ICD records at a cross-thread access.
func (e *env) edge(src, dst *txn.Txn) { e.mgr.AddCrossEdge(src, dst) }

// TestTwoTxnCycle replays the canonical racy increment: A and B both read
// then write the same field, interleaved rdA rdB wrB wrA.
func TestTwoTxnCycle(t *testing.T) {
	e := newEnv()
	a := e.begin(0, 1)
	b := e.begin(1, 2)
	e.access(0, 9, 0, false) // A rd x
	e.access(1, 9, 0, false) // B rd x
	e.edge(a, b)             // IDG edge at B's write (A read before)
	e.access(1, 9, 0, true)  // B wr x
	e.end(1)
	e.edge(b, a)            // IDG edge at A's write
	e.access(0, 9, 0, true) // A wr x
	e.end(0)

	c := NewChecker(nil, BySeq)
	found := c.Process([]*txn.Txn{a, b})
	if len(found) != 1 {
		t.Fatalf("found %d violations, want 1", len(found))
	}
	v := found[0]
	if len(v.Cycle) != 2 {
		t.Errorf("cycle size %d, want 2", len(v.Cycle))
	}
	if len(v.Blamed) != 1 || v.Blamed[0] != a {
		t.Errorf("blamed %v, want [A] (its outgoing edge came first)", v.Blamed)
	}
	if len(v.BlamedMethods) != 1 || v.BlamedMethods[0] != 1 {
		t.Errorf("blamed methods %v", v.BlamedMethods)
	}
}

// TestImpreciseSCCNoPreciseCycle mirrors the paper's §3.2.3 example: the IDG
// has a cycle because ICD tracks object granularity, but the precise fields
// differ, so PCD must find nothing.
func TestImpreciseSCCNoPreciseCycle(t *testing.T) {
	e := newEnv()
	a := e.begin(0, 1)
	b := e.begin(1, 2)
	e.access(0, 5, 0, true)  // A wr o.f
	e.access(1, 6, 0, true)  // B wr p.q
	e.edge(b, a)             // IDG edge: A reads p (conflict with B)
	e.access(0, 6, 0, false) // A rd p.q — true dependence B -> A
	e.edge(a, b)             // IDG edge: B reads o (object-granularity conflict)
	e.access(1, 5, 1, false) // B rd o.g — DIFFERENT FIELD: no true dependence
	e.end(0)
	e.end(1)

	c := NewChecker(nil, BySeq)
	if found := c.Process([]*txn.Txn{a, b}); len(found) != 0 {
		t.Fatalf("imprecise SCC must yield no precise violation, got %v", found)
	}
	if c.Stats().PDGEdges != 1 {
		t.Errorf("expected exactly the one true dependence edge, got %d", c.Stats().PDGEdges)
	}
}

// TestPreciseCycleWhenFieldsMatch is the same scenario with B actually
// reading o.f, which makes the cycle precise (paper: "Note that PCD detects
// a precise cycle involving Tx1i and Tx3k").
func TestPreciseCycleWhenFieldsMatch(t *testing.T) {
	e := newEnv()
	a := e.begin(0, 1)
	b := e.begin(1, 2)
	e.access(0, 5, 0, true) // A wr o.f
	e.access(1, 6, 0, true) // B wr p.q
	e.edge(b, a)
	e.access(0, 6, 0, false) // A rd p.q
	e.edge(a, b)
	e.access(1, 5, 0, false) // B rd o.f — same field: true dependence A -> B
	e.end(0)
	e.end(1)

	c := NewChecker(nil, BySeq)
	if found := c.Process([]*txn.Txn{a, b}); len(found) != 1 {
		t.Fatalf("expected 1 precise violation, got %d", len(found))
	}
}

// TestIntraThreadEdgeCycle: B overlaps two transactions of thread 0; the
// precise cycle B -> A1 -> A2 -> B needs the intra-thread program-order
// edge A1 -> A2.
func TestIntraThreadEdgeCycle(t *testing.T) {
	e := newEnv()
	b := e.begin(1, 2)
	e.access(1, 7, 0, true) // B wr w
	a1 := e.begin(0, 1)
	e.edge(b, a1)
	e.access(0, 7, 0, false) // A1 rd w  (dep B -> A1)
	e.end(0)
	a2 := e.begin(0, 3)
	e.access(0, 8, 0, true) // A2 wr z
	e.end(0)
	e.edge(a2, b)
	e.access(1, 8, 0, false) // B rd z  (dep A2 -> B)
	e.end(1)

	c := NewChecker(nil, BySeq)
	found := c.Process([]*txn.Txn{a1, a2, b})
	if len(found) != 1 {
		t.Fatalf("found %d, want 1 (cycle through intra edge)", len(found))
	}
	if got := len(found[0].Cycle); got != 3 {
		t.Errorf("cycle size %d, want 3", got)
	}
}

// TestSyncMetadataSeparateFromData: a sync access and a data access to the
// same (object, field) must not be confused.
func TestSyncMetadataSeparateFromData(t *testing.T) {
	e := newEnv()
	a := e.begin(0, 1)
	b := e.begin(1, 2)
	e.now++
	e.mgr.Record(0, 5, 0, true, true, e.now) // A releases lock o5 (sync write)
	e.access(1, 5, 0, false)                 // B reads data field o5.0
	e.end(0)
	e.end(1)

	c := NewChecker(nil, BySeq)
	c.Process([]*txn.Txn{a, b})
	if c.Stats().PDGEdges != 0 {
		t.Errorf("sync and data metadata must be separate, got %d edges", c.Stats().PDGEdges)
	}
}

// TestSyncDependenceDetected: release (write) then acquire (read) on the
// same lock creates a sync dependence edge.
func TestSyncDependenceDetected(t *testing.T) {
	e := newEnv()
	a := e.begin(0, 1)
	b := e.begin(1, 2)
	e.now++
	e.mgr.Record(0, 5, 0, true, true, e.now) // A release
	e.now++
	e.mgr.Record(1, 5, 0, false, true, e.now) // B acquire
	e.end(0)
	e.end(1)

	c := NewChecker(nil, BySeq)
	c.Process([]*txn.Txn{a, b})
	if c.Stats().PDGEdges != 1 {
		t.Errorf("release-acquire should create one edge, got %d", c.Stats().PDGEdges)
	}
}

// TestDedupAcrossOverlappingSCCs: processing a superset SCC must not
// re-report the same precise cycle.
func TestDedupAcrossOverlappingSCCs(t *testing.T) {
	e := newEnv()
	a := e.begin(0, 1)
	b := e.begin(1, 2)
	e.access(0, 9, 0, false)
	e.access(1, 9, 0, false)
	e.edge(a, b)
	e.access(1, 9, 0, true)
	e.end(1)
	e.edge(b, a)
	e.access(0, 9, 0, true)
	e.end(0)
	cNew := e.begin(2, 3)
	e.end(2)

	c := NewChecker(nil, BySeq)
	if found := c.Process([]*txn.Txn{a, b}); len(found) != 1 {
		t.Fatalf("first SCC: %d violations", len(found))
	}
	if found := c.Process([]*txn.Txn{a, b, cNew}); len(found) != 0 {
		t.Fatalf("superset SCC re-reported the cycle")
	}
	if len(c.Violations()) != 1 {
		t.Errorf("total violations = %d, want 1", len(c.Violations()))
	}
}

// TestReadWriteClearsReaders: Figure 5's WRITE rule clears all last
// readers; a later write by the same reader-thread must not produce a
// stale-read edge.
func TestWriteClearsReaders(t *testing.T) {
	e := newEnv()
	a := e.begin(0, 1)
	b := e.begin(1, 2)
	e.access(0, 9, 0, false) // A rd x
	e.edge(a, b)
	e.access(1, 9, 0, true) // B wr x: clears A's read, edge A -> B
	e.access(1, 9, 0, true) // B wr x again (elided anyway)
	e.end(0)
	e.end(1)
	cNew := e.begin(2, 3)
	e.edge(b, cNew)
	e.access(2, 9, 0, true) // C wr x: edge B -> C only (A's read cleared)
	e.end(2)

	c := NewChecker(nil, BySeq)
	c.Process([]*txn.Txn{a, b, cNew})
	if got := c.Stats().PDGEdges; got != 2 {
		t.Errorf("edges = %d, want 2 (A->B, B->C)", got)
	}
}

// TestEmptySCCLogs: transactions with empty logs (everything elided or
// filtered) must not crash replay.
func TestEmptySCCLogs(t *testing.T) {
	e := newEnv()
	a := e.begin(0, 1)
	b := e.begin(1, 2)
	e.end(0)
	e.end(1)
	c := NewChecker(nil, BySeq)
	if found := c.Process([]*txn.Txn{a, b}); len(found) != 0 {
		t.Errorf("empty logs produced violations: %v", found)
	}
}

// TestReplayOrdersHigherIDSourceFirst: the dependence's source a runs on
// another thread than its sink b and has the higher ID, yet accesses first.
// Replay must put a's write before b's read, in whichever order the members
// are handed over. A later write by b that a reads back closes the cycle
// a -> b -> a, which only that order finds: replaying b's log before a's
// turns both dependences into edges b -> a.
func TestReplayOrdersHigherIDSourceFirst(t *testing.T) {
	e := newEnv()
	// b is created first, so a has the higher ID.
	b := e.begin(1, 2)
	a := e.begin(0, 1)
	e.access(0, 9, 0, true)  // a wr x (comes first in time)
	e.edge(a, b)             // recorded at b's read
	e.access(1, 9, 0, false) // b rd x
	e.access(1, 8, 0, true)  // b wr y
	e.edge(b, a)             // recorded at a's read
	e.access(0, 8, 0, false) // a rd y
	e.end(0)
	e.end(1)

	for _, scc := range [][]*txn.Txn{{a, b}, {b, a}} {
		c := NewChecker(nil, BySeq)
		found := c.Process(scc)
		if c.Stats().PDGEdges != 2 {
			t.Errorf("members %v: %d PDG edges, want 2 (a->b on x, b->a on y)", scc, c.Stats().PDGEdges)
		}
		if len(found) != 1 || len(found[0].Cycle) != 2 {
			t.Errorf("members %v: found %v, want the one cycle a -> b -> a", scc, found)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	e := newEnv()
	a := e.begin(0, 1)
	e.access(0, 1, 0, true)
	e.end(0)
	c := NewChecker(nil, BySeq)
	c.Process([]*txn.Txn{a})
	st := c.Stats()
	if st.SCCsProcessed != 1 || st.TxnsProcessed != 1 || st.EntriesReplayed != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// TestSegmentationPreventsOverMergeFalsePositive pins the unary
// re-splitting behavior directly: ICD's object-granular edges can merge two
// unary accesses (w1 = wr x.0, w2 = wr x.1) into one unary transaction even
// though an atomic transaction's accesses interleave between them
// (tx: wr x.1 ... rd x.0). Replayed naively, the merged unary forms a
// cycle; re-splitting at the precise incoming edge (w2 starts a fresh
// segment) restores the singleton ground truth, which is serializable.
func TestSegmentationPreventsOverMergeFalsePositive(t *testing.T) {
	e := newEnv()
	tx := e.begin(1, 7)
	e.access(1, 3, 1, true)  // tx wr x.1   @~seq1
	u := e.mgr.Current(0)    // merged unary on thread 0
	e.access(0, 3, 0, true)  // u wr x.0  (w1)
	e.edge(tx, u)            // imprecise IDG edge lands before w2
	e.access(0, 3, 1, true)  // u wr x.1  (w2) -- precise incoming edge from tx
	e.access(1, 3, 0, false) // tx rd x.0 -- precise incoming edge from u (w1)
	e.end(1)
	_ = u

	c := NewChecker(nil, BySeq)
	found := c.Process(append(e.mgr.All()[:0:0], e.mgr.All()...))
	if len(found) != 0 {
		t.Fatalf("over-merged unary produced a false positive: %v", found)
	}
	// The same log WITHOUT segmentation would cycle: verify the precise
	// edges exist in both directions between tx and the unary's segments.
	if c.Stats().PDGEdges < 2 {
		t.Errorf("expected both precise dependences, got %d edges", c.Stats().PDGEdges)
	}
}

// TestSegmentationStillFindsRealCycle: when the in-edge lands on the unary
// segment's FIRST access and a later access feeds back, the cycle is real
// (in-point precedes out-point) and must survive segmentation.
func TestSegmentationStillFindsRealCycle(t *testing.T) {
	e := newEnv()
	tx := e.begin(1, 7)
	e.access(1, 3, 1, true) // tx wr x.1
	e.edge(tx, e.mgr.Current(0))
	e.access(0, 3, 1, false) // u rd x.1  (in-edge at first access)
	e.access(0, 3, 0, true)  // u wr x.0  (same segment, later)
	e.edge(e.mgr.Current(0), tx)
	e.access(1, 3, 0, false) // tx rd x.0 (out from u back into tx)
	e.end(1)

	c := NewChecker(nil, BySeq)
	found := c.Process(append(e.mgr.All()[:0:0], e.mgr.All()...))
	if len(found) != 1 {
		t.Fatalf("real cycle lost by segmentation: %d violations", len(found))
	}
}
