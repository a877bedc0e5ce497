//go:build !race

package txn

import (
	"testing"
	"time"
)

// TestEdgeDedupLinearAtHighOutDegree gives one transaction 100,000 distinct
// successors, each added twice, as one long transaction does when every
// other thread then touches each of its objects once. Dedup must stay
// linear: a scan of Out at every addition takes about 15 s here, a map or
// the successor index a tenth of a second or less.
func TestEdgeDedupLinearAtHighOutDegree(t *testing.T) {
	const succs = 100_000
	const budget = 2 * time.Second
	m := NewManager(false, nil, nil)
	src := m.newTxn(0, 0, false)
	dsts := make([]*Txn, succs)
	for i := range dsts {
		dsts[i] = m.newTxn(1, 0, false)
	}
	start := time.Now()
	for pass := 0; pass < 2; pass++ {
		for _, dst := range dsts {
			m.AddCrossEdge(src, dst)
		}
	}
	elapsed := time.Since(start)
	if st := m.Stats(); len(src.Out) != succs || st.CrossEdges != succs || st.CrossOccs != 2*succs {
		t.Fatalf("%d out-edges, %d cross edges, %d occurrences; want %d, %d, %d",
			len(src.Out), st.CrossEdges, st.CrossOccs, succs, succs, 2*succs)
	}
	t.Logf("%d successors added twice in %v", succs, elapsed)
	if elapsed > budget {
		t.Errorf("adding %d successors twice took %v, budget %v", succs, elapsed, budget)
	}
}
