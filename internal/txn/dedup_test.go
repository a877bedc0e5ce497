package txn

import (
	"math/rand"
	"testing"
)

// TestEdgeDedupMatchesReference adds intra-thread and cross-thread edges
// over random (src, dst) sequences and holds the manager to a reference map
// kept here: EdgeTo, the order of every Out, and the distinct-edge counts.
// A hub source gains more successors than indexedOutDegree, so both the scan
// and the successor index answer. Between rounds every transaction is swept
// and recycled, so a recycled node must forget its old edges and index.
func TestEdgeDedupMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager(false, nil, nil)
		m.EnableRecycling()
		type pair struct{ src, dst *Txn }
		var crossEdges, intraEdges uint64
		indexed := false
		for round := 0; round < 3; round++ {
			pool := make([]*Txn, 40+rng.Intn(60))
			for i := range pool {
				pool[i] = m.newTxn(0, 0, false)
			}
			hub := pool[rng.Intn(len(pool))]
			ref := make(map[pair]bool) // edge -> cross
			order := make(map[*Txn][]*Txn)
			for op := 0; op < 3000; op++ {
				src := pool[rng.Intn(len(pool))]
				if rng.Intn(3) == 0 {
					src = hub
				}
				dst := pool[rng.Intn(len(pool))]
				cross := rng.Intn(2) == 0
				if cross {
					m.AddCrossEdge(src, dst)
				} else {
					m.addIntraEdge(src, dst)
				}
				if src == dst {
					continue
				}
				k := pair{src, dst}
				if _, ok := ref[k]; !ok {
					ref[k] = cross
					order[src] = append(order[src], dst)
					if cross {
						crossEdges++
					} else {
						intraEdges++
					}
				}
			}
			for _, src := range pool {
				want := order[src]
				if len(src.Out) != len(want) {
					t.Fatalf("seed %d round %d: %v has %d out-edges, want %d", seed, round, src, len(src.Out), len(want))
				}
				for i, e := range src.Out {
					if e.Src != src || e.Dst != want[i] || e.Cross != ref[pair{src, want[i]}] {
						t.Fatalf("seed %d round %d: %v's out-edge %d is %v->%v cross=%v, want ->%v cross=%v",
							seed, round, src, i, e.Src, e.Dst, e.Cross, want[i], ref[pair{src, want[i]}])
					}
				}
				indexed = indexed || len(src.Out) > indexedOutDegree
				for _, dst := range pool {
					e := src.EdgeTo(dst)
					_, ok := ref[pair{src, dst}]
					if ok != (e != nil) || (e != nil && (e.Src != src || e.Dst != dst)) {
						t.Fatalf("seed %d round %d: %v.EdgeTo(%v) = %v, reference has edge: %v", seed, round, src, dst, e, ok)
					}
				}
			}
			st := m.Stats()
			if st.CrossEdges != crossEdges || st.IntraEdges != intraEdges {
				t.Fatalf("seed %d round %d: %d cross and %d intra edges, want %d and %d",
					seed, round, st.CrossEdges, st.IntraEdges, crossEdges, intraEdges)
			}
			if swept := m.Collect(nil); swept != len(pool) {
				t.Fatalf("seed %d round %d: swept %d of %d", seed, round, swept, len(pool))
			}
		}
		if !indexed {
			t.Fatalf("seed %d: no source passed %d successors", seed, indexedOutDegree)
		}
	}
}
