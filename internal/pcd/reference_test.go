package pcd

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"doublechecker/internal/cost"
	"doublechecker/internal/graph"
	"doublechecker/internal/icd"
	"doublechecker/internal/obs"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/trace"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// This file keeps the map-based replay that Process used before its working
// state became dense and reused across calls. refProcess rebuilds every map
// per call, sorts the entries by Seq, and searches with graph.FindPath. Its
// logic is the earlier code's; only names, comments, and the pointer-keyed
// types kept here under ref names changed. It is the reference Process must
// match on every SCC: violations, Stats, metered cost, the
// pcd.field_map.size observation, the PDG's edges with their orders, and
// the edge orders blame reads for each violation.

// refFieldKey is the per-field metadata key of the map-based replay.
type refFieldKey struct {
	obj   vm.ObjectID
	field vm.FieldID
	sync  bool
}

// refSegState is segState over transaction pointers.
type refSegState struct {
	node  *txn.Txn
	count int
	idx   int
}

// refModel is the meter's cost model, copied on every call as the
// map-based replay did.
func (c *Checker) refModel() cost.Model {
	if c.meter != nil {
		return c.meter.Model()
	}
	return cost.Model{}
}

// refProcess is the map-based Process; it also returns the call's PDG. A
// Checker used as the reference must be fed through refProcess alone, with
// one seen map for all its calls: the distinct transactions sent to it,
// counted apart from Process's bitset.
func (c *Checker) refProcess(scc []*txn.Txn, seenTxns map[uint64]struct{}) ([]txn.Violation, *refPDG) {
	c.stats.SCCsProcessed++
	c.stats.TxnsProcessed += uint64(len(scc))
	span := c.reg.StartSpan(c.tspan, telemetry.SpanPCDReplay, c.meter)
	defer span.End()
	span.SetInt("scc_txns", int64(len(scc)))

	for _, tx := range scc {
		if _, ok := seenTxns[tx.ID]; !ok {
			seenTxns[tx.ID] = struct{}{}
			c.stats.DistinctTxns++
		}
	}

	entries := refOrderBySeq(scc)

	c.tempBytes = 0
	defer func() {
		if c.meter != nil {
			c.meter.Free(c.tempBytes)
		}
		c.tempBytes = 0
	}()
	c.tempAlloc(24 * int64(len(entries)))

	g := newRefPDG()
	segs := make(map[*txn.Txn]*refSegState, len(scc))
	seg := func(tx *txn.Txn) *refSegState {
		st := segs[tx]
		if st == nil {
			st = &refSegState{node: tx}
			segs[tx] = st
		}
		return st
	}
	threadChain := make(map[vm.ThreadID]*txn.Txn)

	lastWrite := make(map[refFieldKey]*txn.Txn)
	lastReads := make(map[refFieldKey]map[vm.ThreadID]*txn.Txn)

	model := c.refModel()
	var found []txn.Violation
	for _, ref := range entries {
		e := ref.tx.Log[ref.idx]
		c.stats.EntriesReplayed++
		c.charge(model.PCDPerEntry)
		key := refFieldKey{obj: e.Obj, field: e.Field, sync: e.Sync}
		st := seg(ref.tx)

		incoming := false
		if w := lastWrite[key]; w != nil && w.Thread != ref.tx.Thread {
			incoming = true
		}
		if e.Write && !incoming {
			for t := range lastReads[key] {
				if t != ref.tx.Thread {
					incoming = true
					break
				}
			}
		}
		if incoming && ref.tx.Unary && st.count > 0 {
			st.idx++
			fresh := &txn.Txn{
				ID:       ref.tx.ID<<16 | uint64(st.idx),
				Thread:   ref.tx.Thread,
				Method:   ref.tx.Method,
				Unary:    true,
				StartSeq: e.Seq,
				Finished: true,
			}
			g.add(st.node, fresh, e.Seq)
			st.node = fresh
			st.count = 0
		}
		cur := st.node

		if prev := threadChain[ref.tx.Thread]; prev != nil && prev != cur {
			g.add(prev, cur, e.Seq)
		}
		threadChain[ref.tx.Thread] = cur

		if e.Write {
			if w := lastWrite[key]; w != nil && w.Thread != cur.Thread {
				found = c.refAddPDGEdge(span.Trace(), g, w, cur, e.Seq, found)
			}
			for _, t := range sortedThreads(lastReads[key]) {
				if t != cur.Thread {
					found = c.refAddPDGEdge(span.Trace(), g, lastReads[key][t], cur, e.Seq, found)
				}
			}
			lastWrite[key] = cur
			delete(lastReads, key)
		} else {
			if w := lastWrite[key]; w != nil && w.Thread != cur.Thread {
				found = c.refAddPDGEdge(span.Trace(), g, w, cur, e.Seq, found)
			}
			m := lastReads[key]
			if m == nil {
				m = make(map[vm.ThreadID]*txn.Txn)
				lastReads[key] = m
			}
			m[cur.Thread] = cur
		}
		st.count++
	}
	if c.fieldMap != nil {
		c.fieldMap.Observe(uint64(len(lastWrite) + len(lastReads)))
	}
	return found, g
}

// refAddPDGEdge is the map-based addPDGEdge.
func (c *Checker) refAddPDGEdge(replay obs.Span, g *refPDG, src, dst *txn.Txn, seq uint64, found []txn.Violation) []txn.Violation {
	if !g.add(src, dst, seq) {
		return found
	}
	c.stats.PDGEdges++
	c.tempAlloc(64)
	c.charge(c.refModel().PCDPerEdge)
	c.stats.CycleChecks++
	model := c.refModel()
	succ := func(t *txn.Txn) []*txn.Txn {
		c.charge(model.PCDCycleNode)
		return g.succs[t]
	}
	path := graph.FindPath(dst, src, succ)
	if path == nil {
		return found
	}
	c.stats.PreciseCycles++
	key := refCycleKey(path)
	if c.seen[key] {
		return found
	}
	c.seen[key] = true
	blame := c.reg.StartSpan(replay, telemetry.SpanPCDBlame, nil)
	v := txn.NewViolationWith(path, seq, g.order)
	blame.End()
	c.violations = append(c.violations, v)
	return append(found, v)
}

// refCycleKey is cycleKey over transaction pointers, allocating its key.
func refCycleKey(cycle []*txn.Txn) string {
	ids := make([]uint64, len(cycle))
	for i, tx := range cycle {
		ids[i] = tx.ID
	}
	slices.Sort(ids)
	key := make([]byte, 0, 8*len(ids))
	for _, id := range ids {
		key = strconv.AppendUint(key, id, 10)
		key = append(key, ',')
	}
	return string(key)
}

// refPDG is the map-based precise dependence graph.
type refPDG struct {
	adj   map[*txn.Txn]map[*txn.Txn]uint64
	succs map[*txn.Txn][]*txn.Txn
}

func newRefPDG() *refPDG {
	return &refPDG{
		adj:   make(map[*txn.Txn]map[*txn.Txn]uint64),
		succs: make(map[*txn.Txn][]*txn.Txn),
	}
}

func (g *refPDG) add(src, dst *txn.Txn, order uint64) bool {
	if src == dst {
		return false
	}
	m := g.adj[src]
	if m == nil {
		m = make(map[*txn.Txn]uint64)
		g.adj[src] = m
	}
	if _, ok := m[dst]; ok {
		return false
	}
	m[dst] = order
	g.succs[src] = append(g.succs[src], dst)
	return true
}

func (g *refPDG) order(src, dst *txn.Txn) (uint64, bool) {
	o, ok := g.adj[src][dst]
	return o, ok
}

// pdgEdgeKey is one PDG edge by its endpoints' transaction IDs, with its
// order: the form in which both replays' edges are compared.
type pdgEdgeKey struct{ src, dst, order uint64 }

func sortEdgeKeys(ks []pdgEdgeKey) []pdgEdgeKey {
	slices.SortFunc(ks, func(a, b pdgEdgeKey) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst), cmp.Compare(a.order, b.order))
	})
	return ks
}

// edgeKeys lists the reference PDG's edges, sorted.
func (g *refPDG) edgeKeys() []pdgEdgeKey {
	var ks []pdgEdgeKey
	for src, m := range g.adj {
		for dst, o := range m {
			ks = append(ks, pdgEdgeKey{src.ID, dst.ID, o})
		}
	}
	return sortEdgeKeys(ks)
}

// blameOrders is the order of each of v's cycle edges in the reference PDG.
func (g *refPDG) blameOrders(v txn.Violation) []uint64 {
	ords := make([]uint64, len(v.Cycle))
	for i, tx := range v.Cycle {
		ords[i], _ = g.order(tx, v.Cycle[(i+1)%len(v.Cycle)])
	}
	return ords
}

// edgeKeys lists the PDG edges of the call replay has just made, sorted.
func (c *Checker) edgeKeys() []pdgEdgeKey {
	ks := make([]pdgEdgeKey, len(c.g.edges))
	for i, e := range c.g.edges {
		ks[i] = pdgEdgeKey{c.g.nodes[e.src].ID, c.g.nodes[e.dst].ID, e.order}
	}
	return sortEdgeKeys(ks)
}

// blameOrders is the order of each of v's cycle edges as blame reads them,
// in the call replay has just made.
func (c *Checker) blameOrders(v txn.Violation) []uint64 {
	ords := make([]uint64, len(v.Cycle))
	for i, tx := range v.Cycle {
		ords[i], _ = c.g.order(int32(slices.Index(c.g.nodes, tx)), int32(slices.Index(c.g.nodes, v.Cycle[(i+1)%len(v.Cycle)])))
	}
	return ords
}

// sortedThreads returns a reader map's thread keys in ascending order.
func sortedThreads(m map[vm.ThreadID]*txn.Txn) []vm.ThreadID {
	if len(m) == 0 {
		return nil
	}
	ts := make([]vm.ThreadID, 0, len(m))
	for t := range m {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

// entryRef locates one log entry.
type entryRef struct {
	tx  *txn.Txn
	idx int32 // position in tx.Log
}

// refOrderBySeq sorts all log entries of the SCC by the global access clock.
func refOrderBySeq(scc []*txn.Txn) []entryRef {
	var refs []entryRef
	for _, tx := range scc {
		for i := range tx.Log {
			refs = append(refs, entryRef{tx: tx, idx: int32(i)})
		}
	}
	sort.Slice(refs, func(i, j int) bool {
		return refs[i].tx.Log[refs[i].idx].Seq < refs[j].tx.Log[refs[j].idx].Seq
	})
	return refs
}

// replayPair feeds each SCC to Process on one checker and to refProcess on
// another, each with its own cost.Default() meter and registry.
type replayPair struct {
	got, want       *Checker
	gotReg, wantReg *telemetry.Registry
	wantSeen        map[uint64]struct{} // refProcess's seen transactions
}

func newReplayPair() *replayPair {
	p := &replayPair{
		got:      NewChecker(cost.NewMeter(cost.Default()), BySeq),
		want:     NewChecker(cost.NewMeter(cost.Default()), BySeq),
		gotReg:   telemetry.NewRegistry(),
		wantReg:  telemetry.NewRegistry(),
		wantSeen: make(map[uint64]struct{}),
	}
	p.got.SetTelemetry(p.gotReg)
	p.want.SetTelemetry(p.wantReg)
	return p
}

// process replays scc on both checkers and fails at the first difference.
func (p *replayPair) process(t testing.TB, label string, scc []*txn.Txn) {
	t.Helper()
	got := p.got.replay(scc)
	gotEdges := p.got.edgeKeys()
	gotOrds := make([][]uint64, len(got))
	for i, v := range got {
		gotOrds[i] = p.got.blameOrders(v)
	}
	p.got.release()
	want, wantPDG := p.want.refProcess(scc, p.wantSeen)
	gk, wk := violationKeys(got), violationKeys(want)
	if !slices.Equal(gk, wk) {
		t.Fatalf("%s: violations %v, reference %v", label, gk, wk)
	}
	if we := wantPDG.edgeKeys(); !slices.Equal(gotEdges, we) {
		t.Fatalf("%s: PDG edges %v, reference %v", label, gotEdges, we)
	}
	for i, v := range want {
		if wo := wantPDG.blameOrders(v); !slices.Equal(gotOrds[i], wo) {
			t.Fatalf("%s: violation %s: blame read edge orders %v, reference %v", label, gk[i], gotOrds[i], wo)
		}
	}
	if gs, ws := p.got.Stats(), p.want.Stats(); gs != ws {
		t.Fatalf("%s: stats %+v, reference %+v", label, gs, ws)
	}
	if gr, wr := p.got.meter.Report(), p.want.meter.Report(); gr != wr {
		t.Fatalf("%s: meter %+v, reference %+v", label, gr, wr)
	}
	// One observation per call, compared after every call: equal sums mean
	// equal observations.
	gh := p.gotReg.Histogram(telemetry.PCDFieldMap, telemetry.MapSizeBuckets)
	wh := p.wantReg.Histogram(telemetry.PCDFieldMap, telemetry.MapSizeBuckets)
	if gh.Count() != wh.Count() || gh.Sum() != wh.Sum() {
		t.Fatalf("%s: %s count %d sum %d, reference count %d sum %d",
			label, telemetry.PCDFieldMap, gh.Count(), gh.Sum(), wh.Count(), wh.Sum())
	}
}

// TestReplayMatchesReference replays every golden trace through a logging
// ICD checker whose OnSCC hook hands each SCC to Process and to the
// map-based reference.
func TestReplayMatchesReference(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/traces/*.dct")
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus not found: %v (%d files)", err, len(paths))
	}
	sccs, violations := 0, 0
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".dct")
		d, err := trace.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p := newReplayPair()
		n := 0
		ic := icd.NewChecker(d.Header.Program, nil, icd.Options{
			Logging: true,
			OnSCC: func(scc []*txn.Txn) {
				n++
				p.process(t, fmt.Sprintf("%s/scc %d", name, n), scc)
			},
		})
		if err := trace.Replay(context.Background(), d, ic); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sccs += n
		violations += len(p.got.Violations())
	}
	if sccs == 0 || violations == 0 {
		t.Fatalf("%d SCCs and %d violations over the corpus; the check is vacuous", sccs, violations)
	}
}

// interleavedRun builds a run of regular and unary transactions on threads
// goroutines that interleave accesses to a few shared fields, and returns
// every transaction the manager created.
func interleavedRun(rng *rand.Rand, threads int) []*txn.Txn {
	e := newEnv()
	active := make([]bool, threads)
	for step := 0; step < 300; step++ {
		th := vm.ThreadID(rng.Intn(threads))
		switch r := rng.Intn(10); {
		case r == 0 && !active[th]:
			e.begin(th, vm.MethodID(rng.Intn(4)+1))
			active[th] = true
		case r == 1 && active[th]:
			e.end(th)
			active[th] = false
		default:
			// Outside a regular transaction this lands in a unary one.
			e.access(th, vm.ObjectID(rng.Intn(3)+1), vm.FieldID(rng.Intn(2)), rng.Intn(3) == 0)
		}
	}
	for th, on := range active {
		if on {
			e.end(vm.ThreadID(th))
		}
	}
	return e.mgr.All()
}

// memberOrder counts the threads scc spans and those whose members it hands
// over out of ID order.
func memberOrder(scc []*txn.Txn) (threads, unsorted int) {
	last := make(map[vm.ThreadID]uint64)
	out := make(map[vm.ThreadID]bool)
	for _, tx := range scc {
		if id, ok := last[tx.Thread]; ok && id > tx.ID {
			out[tx.Thread] = true
		}
		last[tx.Thread] = tx.ID
	}
	return len(last), len(out)
}

// TestBySeqMergesUnsortedMembers hands BySeq replay SCCs that span three to
// five threads with members out of ID order, as ICD may hand them over:
// grouped by thread in descending ID order, and shuffled. Each must replay
// exactly as the reference's sort of every entry by Seq does.
func TestBySeqMergesUnsortedMembers(t *testing.T) {
	violations := 0
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		threads := 3 + int(seed%3)
		all := interleavedRun(rng, threads)
		descending := slices.Clone(all)
		slices.SortFunc(descending, func(a, b *txn.Txn) int {
			if a.Thread != b.Thread {
				return cmp.Compare(a.Thread, b.Thread)
			}
			return cmp.Compare(b.ID, a.ID)
		})
		shuffled := slices.Clone(all)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		p := newReplayPair()
		for _, scc := range []struct {
			name    string
			members []*txn.Txn
		}{{"descending", descending}, {"shuffled", shuffled}} {
			if spanned, unsorted := memberOrder(scc.members); spanned < 3 || unsorted == 0 {
				t.Fatalf("seed %d %s: the SCC spans %d threads, %d of them out of ID order; want at least 3, and 1",
					seed, scc.name, spanned, unsorted)
			}
			p.process(t, fmt.Sprintf("seed %d %s", seed, scc.name), scc.members)
		}
		violations += len(p.got.Violations())
	}
	if violations == 0 {
		t.Fatal("no SCC had a violation; the check is vacuous")
	}
}

// TestOneWriterManyReaders replays an SCC in which one transaction's write
// is read by the transactions of many threads, twice each, against the
// reference. The writer's PDG node gains one successor per reader, and each
// second read re-adds an edge that sits deep in that list, so the
// newest-first dedup scan runs long and must still find it.
func TestOneWriterManyReaders(t *testing.T) {
	const readers = 48
	e := newEnv()
	w := e.begin(0, 1)
	e.access(0, 1, 0, true) // W wr x
	scc := []*txn.Txn{w}
	for th := vm.ThreadID(1); th <= readers; th++ {
		scc = append(scc, e.begin(th, vm.MethodID(th%4+2)))
	}
	for round := 0; round < 2; round++ {
		for th := vm.ThreadID(1); th <= readers; th++ {
			// The edge opens a new elision window, so the second read is
			// logged too.
			e.edge(w, scc[th])
			e.access(th, 1, 0, false) // R rd x
		}
	}
	for th := vm.ThreadID(1); th <= readers; th++ {
		e.access(th, 2, 0, true) // R wr y
		e.end(th)
	}
	e.access(0, 2, 0, false) // W rd y: closes a cycle through the last writer
	e.end(0)

	p := newReplayPair()
	p.process(t, "one writer, many readers", scc)
	st := p.got.Stats()
	if st.PDGEdges < readers || len(p.got.Violations()) == 0 {
		t.Fatalf("%d PDG edges and %d violations; want at least %d edges and a violation",
			st.PDGEdges, len(p.got.Violations()), readers)
	}
}
