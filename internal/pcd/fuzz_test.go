package pcd

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// violationKey renders a violation as a comparable identity: sorted cycle
// member IDs, sorted blamed IDs, sorted blamed methods, and the detection
// clock. Unary segments are synthesized per replay, so comparisons go
// through IDs, never pointers.
func violationKey(v txn.Violation) string {
	ids := func(txs []*txn.Txn) []uint64 {
		out := make([]uint64, len(txs))
		for i, tx := range txs {
			out[i] = tx.ID
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	ms := append([]vm.MethodID(nil), v.BlamedMethods...)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	return fmt.Sprintf("cycle=%v blamed=%v methods=%v seq=%d", ids(v.Cycle), ids(v.Blamed), ms, v.Seq)
}

func violationKeys(vs []txn.Violation) []string {
	keys := make([]string, len(vs))
	for i, v := range vs {
		keys[i] = violationKey(v)
	}
	return keys
}

// buildFuzzRun interprets fuzz bytes as a synthetic ICD session — begins,
// ends, accesses, and cross edges over a few threads — and returns the
// created transactions and the SCC groups a detector would have handed to
// PCD (consecutive chunks of the created transactions, sizes also driven by
// the input; overlap included so cross-SCC dedup is exercised).
func buildFuzzRun(data []byte) (created []*txn.Txn, groups [][]*txn.Txn) {
	e := newEnv()
	const nThreads = 3
	active := make(map[vm.ThreadID]*txn.Txn)
	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
	steps := 0
	for i < len(data) && steps < 512 {
		steps++
		th := vm.ThreadID(next() % nThreads)
		switch next() % 8 {
		case 0:
			if active[th] == nil {
				tx := e.begin(th, vm.MethodID(next()%4+1))
				active[th] = tx
				created = append(created, tx)
			}
		case 1:
			if active[th] != nil {
				e.end(th)
				active[th] = nil
			}
		case 2, 3, 4, 5:
			obj := vm.ObjectID(next()%3 + 1)
			f := vm.FieldID(next() % 2)
			write := next()%2 == 0
			if active[th] == nil {
				tx := e.begin(th, vm.MethodID(next()%4+1))
				active[th] = tx
				created = append(created, tx)
			}
			e.access(th, obj, f, write)
		default:
			if len(created) >= 2 {
				src := created[int(next())%len(created)]
				dst := created[int(next())%len(created)]
				if src != dst && src.Thread != dst.Thread {
					e.edge(src, dst)
				}
			}
		}
	}
	for th, tx := range active {
		if tx != nil {
			e.end(th)
		}
	}
	// Chunk into SCC groups; a second pass re-reports a prefix so the same
	// cycle can be found in two groups (dedup must keep exactly one).
	for start := 0; start < len(created); {
		n := 1 + int(next()%6)
		end := start + n
		if end > len(created) {
			end = len(created)
		}
		groups = append(groups, created[start:end])
		start = end
	}
	if len(created) > 1 {
		groups = append(groups, created[:len(created)/2+1])
	}
	return created, groups
}

// FuzzPCDProcess: on any synthetic SCC log, two fresh checkers fed the same
// SCC groups must report the identical violation sequence and stats — replay
// is a function of its input alone, whatever state Process keeps between
// SCCs or leaves on the transactions it reads — and Process must agree with
// the map-based reference replay on every group.
func FuzzPCDProcess(f *testing.F) {
	// The canonical racy increment, a no-conflict run, and edge-heavy noise.
	f.Add([]byte{0, 0, 10, 1, 0, 20, 0, 2, 1, 0, 0, 1, 2, 1, 0, 1, 6, 0, 1, 0, 2, 1, 0, 1, 1, 1, 0, 1})
	f.Add([]byte{0, 0, 1, 1, 2, 1, 0, 1, 0, 1})
	f.Add([]byte{2, 2, 1, 0, 0, 1, 3, 1, 1, 1, 6, 1, 0, 2, 4, 2, 0, 1, 6, 0, 1, 5, 2, 1, 1, 0})
	// A long run: dozens of transactions, whose whole set is a large SCC.
	long := make([]byte, 3000)
	x := uint32(1)
	for i := range long {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		long[i] = byte(x)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		created, groups := buildFuzzRun(data)
		first, second := NewChecker(nil, BySeq), NewChecker(nil, BySeq)
		for _, g := range groups {
			first.Process(g)
		}
		for _, g := range groups {
			second.Process(g)
		}

		fk, sk := violationKeys(first.Violations()), violationKeys(second.Violations())
		if len(fk) != len(sk) {
			t.Fatalf("first replay %d violations %v, second %d %v", len(fk), fk, len(sk), sk)
		}
		for i := range fk {
			if fk[i] != sk[i] {
				t.Fatalf("violation %d: first %q second %q", i, fk[i], sk[i])
			}
		}
		if first.Stats() != second.Stats() {
			t.Fatalf("stats first %+v second %+v", first.Stats(), second.Stats())
		}

		// Process must match the map-based reference. The whole run goes
		// first, as one large SCC, so that state a call leaves behind shows
		// in the small groups after it.
		p := newReplayPair()
		p.process(t, "all", created)
		for i, g := range groups {
			p.process(t, fmt.Sprintf("group %d", i), g)
		}
	})
}

// TestPropertyAcyclicSCCFindsNothing: on fixtures whose true dependence
// graph is acyclic within the reported SCC, replay must find no violation,
// however badly the imprecise SCC over-approximated, and must match the
// map-based reference. The fixtures run transactions strictly one at a time
// (begin → accesses → end before the next begins), so every true dependence
// points forward in time and the precise graph cannot have a cycle — yet
// the whole set is reported as one SCC, cross edges and all.
func TestPropertyAcyclicSCCFindsNothing(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := newEnv()
		nThreads := 2 + rng.Intn(4)
		nObjs := 1 + rng.Intn(3)
		var all []*txn.Txn
		// lastTouched[obj] is the most recent transaction to access obj; the
		// recorded cross edge always points from it to the newer transaction.
		lastTouched := make(map[vm.ObjectID]*txn.Txn)
		for k := 0; k < 6+rng.Intn(12); k++ {
			th := vm.ThreadID(rng.Intn(nThreads))
			tx := e.begin(th, vm.MethodID(rng.Intn(3)+1))
			all = append(all, tx)
			for a := 0; a < 1+rng.Intn(4); a++ {
				obj := vm.ObjectID(rng.Intn(nObjs) + 1)
				if prev := lastTouched[obj]; prev != nil && prev.Thread != th {
					e.edge(prev, tx)
				}
				e.access(th, obj, vm.FieldID(rng.Intn(2)), rng.Intn(3) == 0)
				lastTouched[obj] = tx
			}
			e.end(th)
		}
		p := newReplayPair()
		p.process(t, fmt.Sprintf("seed %d", seed), all)
		if vs := p.got.Violations(); len(vs) != 0 {
			t.Errorf("seed %d: acyclic fixture produced %d violations", seed, len(vs))
		}
	}
}
