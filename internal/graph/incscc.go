package graph

import (
	"cmp"
	"slices"
)

// Incremental strongly-connected-component condensation, the engine behind
// ICD's deferred cycle detection. The structure maintains a Pearce–Kelly
// online topological order over the *condensation* of the eligible subgraph
// (components as union–find classes) and, when an edge insertion closes a
// cycle, collapses every component on a path between the edge's endpoints
// into one class. Where re-running Tarjan (SCCFrom) over the whole finished
// region at every transaction finish costs O(N·(V+E)) across a run, this
// engine pays for each region only when it actually changes, touching the
// affected order window once per insertion.
//
// Three ICD-specific wrinkles shape the API (paper §3.2.3, §4):
//
//   - Detection is restricted to *finished* transactions. Nodes carry an
//     active flag initialized from an activation predicate; an edge becomes
//     eligible (entering the maintained condensation) only once both
//     endpoints are active. Until then it is parked on an inactive endpoint
//     and drained by Activate — which is exactly a transaction finish.
//   - Dead-node GC. The transaction manager sweeps nodes that can never join
//     a future cycle; Release removes them. Components always die whole
//     (members are mutually reachable, so the manager's reachability
//     mark-and-sweep keeps or frees them together), and stale adjacency is
//     dropped lazily via per-slot generation counters.
//   - Maximal-SCC extraction. CyclicComponent returns the full member set of
//     a node's component — the paper hands ICD's maximal SCCs to PCD — as a
//     ring walk, without rescanning any edges.
//
// Node slots are recycled through an internal free list, so steady-state
// operation (insert, activate, detect, release) allocates only when a
// component's adjacency genuinely grows — the same allocation discipline the
// txn manager applies to transaction nodes. Reset extends that discipline
// across graphs: it empties the engine but keeps every slot, adjacency array
// and scratch slice for the next graph. A node carries its own slot, in a
// word the caller's accessor hands the engine, so no operation hashes a
// node.
type IncSCC[N comparable] struct {
	active  func(N) bool
	slot    func(N) *int32
	onMerge func(winner, loser N)
	live    int
	nodes   []incNode[N]
	free    []int32
	order   int
	op      uint64
	listOp  uint64
	stats   IncSCCStats

	// scratch storage reused across insertions
	stack  []int32
	deltaF []int32
	deltaB []int32
	fx, bx []int32
	sset   []int32
	pool   []int
}

// incNode is one node slot. parent/rank/next/size/cyclic implement the
// union–find classes with a circular member ring; ord is the Pearce–Kelly
// topological index (meaningful on class roots); succs/preds hold
// component-level adjacency (appended on roots, lazily re-resolved after
// merges); pend parks not-yet-eligible edges on an inactive endpoint.
type incNode[N comparable] struct {
	val    N
	parent int32
	next   int32
	gen    int32
	active bool
	dead   bool
	cyclic bool
	ord    int
	size   int
	visitF uint64
	visitB uint64
	mark   uint64 // per-list dedup stamp (see compact loops)
	succs  []adjRef
	preds  []adjRef
	pend   []pendRef
}

// adjRef is one component-level adjacency entry. gen detects references to a
// released-and-recycled slot, which traversals drop during compaction.
type adjRef struct {
	slot int32
	gen  int32
}

// pendRef is one parked (not yet eligible) edge: the other endpoint plus the
// direction (out: the edge leaves the node the ref is parked on).
type pendRef struct {
	other int32
	gen   int32
	out   bool
}

// IncSCCStats counts the engine's work, for the cost model.
type IncSCCStats struct {
	NodesVisited uint64 // component roots visited during reorder discovery
	EdgesScanned uint64 // adjacency entries examined during discovery and compaction
}

// NewIncSCC returns an empty engine. active reports whether a node is
// eligible for detection at the moment it first enters the graph (for ICD:
// whether the transaction has finished); later eligibility changes must be
// announced via Activate. slot returns the word where the engine keeps a
// node's slot (for ICD: txn.Txn.Slot). Only the engine writes the word: it
// holds the slot plus one while the node is live in the engine, and 0
// otherwise, so a node the engine has not seen must read 0.
func NewIncSCC[N comparable](active func(N) bool, slot func(N) *int32) *IncSCC[N] {
	if active == nil {
		active = func(N) bool { return true }
	}
	return &IncSCC[N]{active: active, slot: slot}
}

// Stats returns work counters.
func (g *IncSCC[N]) Stats() IncSCCStats { return g.stats }

// SetOnMerge registers a hook invoked once per component collapsed into
// another (winner absorbs loser), with the components' representative values.
// Callers use it to maintain per-component aggregates — e.g. ICD keeps
// per-method member counts so detection can report a component without
// walking its members.
func (g *IncSCC[N]) SetOnMerge(f func(winner, loser N)) { g.onMerge = f }

// Component reports n's component: its representative value, member count,
// and whether it is cyclic (size > 1 or a self-loop). O(1) amortized — a
// union–find lookup, no member or edge walk. ok is false when n was never
// seen by AddEdge/Activate.
func (g *IncSCC[N]) Component(n N) (rep N, size int, cyclic, ok bool) {
	s := g.slotOf(n)
	if s < 0 {
		var zero N
		return zero, 0, false, false
	}
	r := g.find(s)
	return g.nodes[r].val, g.nodes[r].size, g.nodes[r].cyclic, true
}

// Nodes returns the number of live (non-released) nodes.
func (g *IncSCC[N]) Nodes() int { return g.live }

// slotOf returns n's slot, or -1 when n is not live in the engine.
func (g *IncSCC[N]) slotOf(n N) int32 { return *g.slot(n) - 1 }

// ensure returns n's slot, creating it (recycling a released slot when one
// is free) if needed.
func (g *IncSCC[N]) ensure(n N) int32 {
	w := g.slot(n)
	if *w != 0 {
		return *w - 1
	}
	var s int32
	if len(g.free) > 0 {
		s = g.free[len(g.free)-1]
		g.free = g.free[:len(g.free)-1]
	} else {
		g.nodes = append(g.nodes, incNode[N]{})
		s = int32(len(g.nodes) - 1)
	}
	nd := &g.nodes[s]
	gen := nd.gen
	succs, preds, pend := nd.succs[:0], nd.preds[:0], nd.pend[:0]
	*nd = incNode[N]{
		val: n, parent: s, next: s, gen: gen,
		active: g.active(n), ord: g.order, size: 1,
		succs: succs, preds: preds, pend: pend,
	}
	g.order++
	g.live++
	*w = s + 1
	return s
}

// find returns the union–find root of slot s, with path halving.
func (g *IncSCC[N]) find(s int32) int32 {
	for g.nodes[s].parent != s {
		p := g.nodes[s].parent
		g.nodes[s].parent = g.nodes[p].parent
		s = g.nodes[s].parent
	}
	return s
}

// resolve maps an adjacency reference to its current component root, or -1
// when the reference is stale (the slot was released, possibly recycled).
func (g *IncSCC[N]) resolve(r adjRef) int32 {
	nd := &g.nodes[r.slot]
	if nd.dead || nd.gen != r.gen {
		return -1
	}
	return g.find(r.slot)
}

// AddEdge records the edge src -> dst. If both endpoints are active the edge
// enters the condensation immediately (possibly collapsing components);
// otherwise it is parked on an inactive endpoint until Activate drains it.
func (g *IncSCC[N]) AddEdge(src, dst N) {
	a := g.ensure(src)
	b := g.ensure(dst)
	switch {
	case !g.nodes[b].active:
		g.nodes[b].pend = append(g.nodes[b].pend, pendRef{other: a, gen: g.nodes[a].gen, out: false})
	case !g.nodes[a].active:
		g.nodes[a].pend = append(g.nodes[a].pend, pendRef{other: b, gen: g.nodes[b].gen, out: true})
	default:
		g.insertEligible(a, b)
	}
}

// Activate marks n eligible for detection (for ICD: the transaction
// finished) and drains the edges parked on it: each becomes eligible if its
// other endpoint is active, or migrates to that endpoint's pend list
// otherwise. A node never seen by AddEdge needs no slot: its activity is
// read from the activation predicate when it first appears.
func (g *IncSCC[N]) Activate(n N) {
	s := g.slotOf(n)
	if s < 0 {
		return
	}
	nd := &g.nodes[s]
	if nd.active || nd.dead {
		return
	}
	nd.active = true
	pend := nd.pend
	nd.pend = nil // consumed below; restored (emptied) after the drain
	for _, r := range pend {
		o := &g.nodes[r.other]
		if o.dead || o.gen != r.gen {
			continue
		}
		if !o.active {
			o.pend = append(o.pend, pendRef{other: s, gen: g.nodes[s].gen, out: !r.out})
			continue
		}
		if r.out {
			g.insertEligible(s, r.other)
		} else {
			g.insertEligible(r.other, s)
		}
	}
	// Keep the backing array for the slot's next life. Safe: re-parks above
	// only target inactive nodes, and this node is active, so none of them
	// appended here.
	g.nodes[s].pend = pend[:0]
}

// CyclicComponent returns the members of n's component appended to buf when
// the component is cyclic (size > 1, or a self-loop), or nil otherwise. The
// walk touches each member once and no edges.
func (g *IncSCC[N]) CyclicComponent(n N, buf []N) []N {
	s := g.slotOf(n)
	if s < 0 {
		return nil
	}
	r := g.find(s)
	if !g.nodes[r].cyclic {
		return nil
	}
	m := r
	for {
		buf = append(buf, g.nodes[m].val)
		m = g.nodes[m].next
		if m == r {
			return buf
		}
	}
}

// Release removes a node swept by the caller's GC. The caller must release
// every member of a dead component before the next AddEdge/Activate call (the
// transaction manager's mark-and-sweep guarantees this: mutually reachable
// members are swept together); adjacency into released slots is dropped
// lazily via generation checks.
func (g *IncSCC[N]) Release(n N) {
	s := g.slotOf(n)
	if s < 0 {
		return
	}
	g.retire(s)
	g.free = append(g.free, s)
}

// Reset empties the engine for a new graph, keeping its storage: every live
// slot is retired as Release retires it, which zeroes its node's slot word,
// every slot joins the free list (lowest index on top, so a new graph fills
// slots in the order a fresh engine would), and the topological order and
// the work counters restart from zero. The activation predicate, the slot
// accessor and the merge hook stay.
func (g *IncSCC[N]) Reset() {
	g.free = g.free[:0]
	for s := int32(len(g.nodes)) - 1; s >= 0; s-- {
		if !g.nodes[s].dead {
			g.retire(s)
		}
		g.free = append(g.free, s)
	}
	g.order = 0
	g.stats = IncSCCStats{}
}

// retire kills slot s: its node's slot word goes back to 0, adjacency that
// still names the slot goes stale through the generation bump, its lists are
// emptied with their capacity kept, and its value is dropped so the engine
// retains nothing of the caller's.
func (g *IncSCC[N]) retire(s int32) {
	nd := &g.nodes[s]
	*g.slot(nd.val) = 0
	g.live--
	nd.dead = true
	nd.gen++
	nd.succs = nd.succs[:0]
	nd.preds = nd.preds[:0]
	nd.pend = nd.pend[:0]
	var zero N
	nd.val = zero
}

// insertEligible inserts a component-level edge a -> b (both endpoints
// active) into the maintained condensation: Pearce–Kelly reordering of the
// affected window when the order is disturbed, union–find collapse of every
// component on a b ⇝ a path when the edge closes a cycle.
func (g *IncSCC[N]) insertEligible(a, b int32) {
	ra, rb := g.find(a), g.find(b)
	if ra == rb {
		// Internal edge: a single-node component becomes a self-loop cycle;
		// a larger one is already cyclic.
		g.nodes[ra].cyclic = true
		return
	}
	ub, lb := g.nodes[ra].ord, g.nodes[rb].ord
	if lb > ub {
		// Already consistent with the order: insertion is free.
		g.link(ra, rb)
		return
	}
	g.op++
	deltaF := g.forward(rb, ub)
	cycle := g.nodes[ra].visitF == g.op
	deltaB := g.backward(ra, lb)
	if !cycle {
		// Acyclic Pearce–Kelly reorder: the affected window's indices are
		// reassigned to deltaB (in relative order) then deltaF.
		g.pool = g.pool[:0]
		for _, r := range deltaF {
			g.pool = append(g.pool, g.nodes[r].ord)
		}
		for _, r := range deltaB {
			g.pool = append(g.pool, g.nodes[r].ord)
		}
		sortIndices(g.pool)
		sortRootsByOrd(g, deltaB)
		sortRootsByOrd(g, deltaF)
		k := 0
		for _, r := range deltaB {
			g.nodes[r].ord = g.pool[k]
			k++
		}
		for _, r := range deltaF {
			g.nodes[r].ord = g.pool[k]
			k++
		}
		g.link(ra, rb)
		return
	}
	// The edge closes a cycle: S = deltaF ∩ deltaB is exactly the set of
	// components on some b ⇝ a path (every such component lies in the order
	// window and is both forward-reachable from b and backward-reachable
	// from a). Merge S into one component placed between the rest of deltaB
	// (below) and the rest of deltaF (above); no edge crosses from the F
	// side to the B side or into S from the F side — such an edge would put
	// its endpoints on a b ⇝ a path, i.e. in S.
	g.sset, g.fx, g.bx = g.sset[:0], g.fx[:0], g.bx[:0]
	g.pool = g.pool[:0]
	for _, r := range deltaF {
		g.pool = append(g.pool, g.nodes[r].ord)
		if g.nodes[r].visitB == g.op {
			g.sset = append(g.sset, r)
		} else {
			g.fx = append(g.fx, r)
		}
	}
	for _, r := range deltaB {
		if g.nodes[r].visitF != g.op {
			g.pool = append(g.pool, g.nodes[r].ord)
			g.bx = append(g.bx, r)
		}
	}
	sortIndices(g.pool)
	sortRootsByOrd(g, g.bx)
	sortRootsByOrd(g, g.fx)
	k := 0
	for _, r := range g.bx {
		g.nodes[r].ord = g.pool[k]
		k++
	}
	mergedOrd := g.pool[k]
	// The rest of deltaF takes the top slots, as deltaB took the bottom
	// ones: each of its components then moves up, never down, so an edge
	// into it from a window component outside deltaF ∪ deltaB (which
	// keeps its slot) still points upward. The len(S)-1 slots between the
	// merged component and the rest of deltaF go unused.
	k = len(g.pool) - len(g.fx)
	for _, r := range g.fx {
		g.nodes[r].ord = g.pool[k]
		k++
	}
	g.mergeInto(g.sset, mergedOrd)
}

// mergeInto collapses the component roots in s into one class: union–find
// links, ring splices, size sums, and adjacency concatenation, followed by an
// eager dedup-compaction of the merged lists. Without the compaction the
// winner's adjacency grows by the loser's full list at every merge and each
// later discovery pass rescans the duplicates — quadratic in the component's
// final size; compacting down to distinct external components keeps
// maintenance linear in the true edge count.
func (g *IncSCC[N]) mergeInto(s []int32, ord int) {
	w := s[0]
	for _, r := range s[1:] {
		if g.onMerge != nil {
			g.onMerge(g.nodes[w].val, g.nodes[r].val)
		}
		g.nodes[r].parent = w
		g.nodes[w].next, g.nodes[r].next = g.nodes[r].next, g.nodes[w].next
		g.nodes[w].size += g.nodes[r].size
		g.nodes[w].succs = append(g.nodes[w].succs, g.nodes[r].succs...)
		g.nodes[w].preds = append(g.nodes[w].preds, g.nodes[r].preds...)
		g.nodes[r].succs = g.nodes[r].succs[:0]
		g.nodes[r].preds = g.nodes[r].preds[:0]
	}
	g.nodes[w].ord = ord
	g.nodes[w].cyclic = true
	g.nodes[w].succs = g.compactList(w, g.nodes[w].succs)
	g.nodes[w].preds = g.compactList(w, g.nodes[w].preds)
}

// compactList drops stale, internal, and duplicate entries from one of r's
// adjacency lists, normalizing survivors to their current component roots.
// Each distinct live target is kept once, stamped via mark against a fresh
// listOp so dedup needs no per-call map.
func (g *IncSCC[N]) compactList(r int32, list []adjRef) []adjRef {
	g.listOp++
	lop := g.listOp
	w := 0
	for _, ref := range list {
		g.stats.EdgesScanned++
		t := g.resolve(ref)
		if t < 0 || t == r || g.nodes[t].mark == lop {
			continue
		}
		g.nodes[t].mark = lop
		list[w] = adjRef{slot: t, gen: g.nodes[t].gen}
		w++
	}
	return list[:w]
}

// link appends the component-level adjacency for edge ra -> rb.
func (g *IncSCC[N]) link(ra, rb int32) {
	g.nodes[ra].succs = append(g.nodes[ra].succs, adjRef{slot: rb, gen: g.nodes[rb].gen})
	g.nodes[rb].preds = append(g.nodes[rb].preds, adjRef{slot: ra, gen: g.nodes[ra].gen})
}

// forward collects the component roots reachable from start with ord <= ub
// (stamping visitF), compacting stale and internal adjacency entries as it
// scans them.
func (g *IncSCC[N]) forward(start int32, ub int) []int32 {
	g.deltaF = g.deltaF[:0]
	g.stack = append(g.stack[:0], start)
	g.nodes[start].visitF = g.op
	for len(g.stack) > 0 {
		r := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		g.deltaF = append(g.deltaF, r)
		g.stats.NodesVisited++
		g.listOp++
		lop := g.listOp
		succs := g.nodes[r].succs
		w := 0
		for _, ref := range succs {
			g.stats.EdgesScanned++
			t := g.resolve(ref)
			if t < 0 || t == r || g.nodes[t].mark == lop {
				continue // stale, internal after a merge, or duplicate: drop
			}
			g.nodes[t].mark = lop
			succs[w] = adjRef{slot: t, gen: g.nodes[t].gen}
			w++
			if g.nodes[t].visitF != g.op && g.nodes[t].ord <= ub {
				g.nodes[t].visitF = g.op
				g.stack = append(g.stack, t)
			}
		}
		g.nodes[r].succs = succs[:w]
	}
	return g.deltaF
}

// backward collects the component roots reaching start with ord >= lb
// (stamping visitB), with the same lazy compaction over pred lists.
func (g *IncSCC[N]) backward(start int32, lb int) []int32 {
	g.deltaB = g.deltaB[:0]
	g.stack = append(g.stack[:0], start)
	g.nodes[start].visitB = g.op
	for len(g.stack) > 0 {
		r := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		g.deltaB = append(g.deltaB, r)
		g.stats.NodesVisited++
		g.listOp++
		lop := g.listOp
		preds := g.nodes[r].preds
		w := 0
		for _, ref := range preds {
			g.stats.EdgesScanned++
			t := g.resolve(ref)
			if t < 0 || t == r || g.nodes[t].mark == lop {
				continue
			}
			g.nodes[t].mark = lop
			preds[w] = adjRef{slot: t, gen: g.nodes[t].gen}
			w++
			if g.nodes[t].visitB != g.op && g.nodes[t].ord >= lb {
				g.nodes[t].visitB = g.op
				g.stack = append(g.stack, t)
			}
		}
		g.nodes[r].preds = preds[:w]
	}
	return g.deltaB
}

// sortIndices sorts the reassignment pool ascending.
func sortIndices(xs []int) { slices.Sort(xs) }

// sortRootsByOrd sorts component roots by their current topological index
// (indices are unique, so the order is total).
func sortRootsByOrd[N comparable](g *IncSCC[N], rs []int32) {
	slices.SortFunc(rs, func(x, y int32) int {
		return cmp.Compare(g.nodes[x].ord, g.nodes[y].ord)
	})
}
