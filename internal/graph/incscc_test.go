package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// incModel is the reference model the property tests compare IncSCC against:
// a plain adjacency list handed to the Tarjan-based SCCFrom, with the same
// activation and death restrictions expressed as an include predicate.
type incModel struct {
	succs  map[int][]int
	active map[int]bool
	dead   map[int]bool
}

func newIncModel() *incModel {
	return &incModel{succs: make(map[int][]int), active: make(map[int]bool), dead: make(map[int]bool)}
}

func (m *incModel) succ(n int) []int { return m.succs[n] }

func (m *incModel) include(n int) bool { return m.active[n] && !m.dead[n] }

// nodes returns every node the model has seen, in ascending order, so that
// walks over the model do not depend on map iteration order.
func (m *incModel) nodes() []int {
	out := make([]int, 0, len(m.succs))
	for n := range m.succs {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// refComponent is the scan engine's answer: the cyclic SCC containing n over
// the active, live subgraph, or nil.
func (m *incModel) refComponent(n int) []int {
	return SCCFrom(n, m.succ, m.include)
}

func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

func equalSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := sortedCopy(a), sortedCopy(b)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// checkAgainstRef compares the engine's cyclic component against SCCFrom for
// every live node.
func checkAgainstRef(t *testing.T, g *IncSCC[int], m *incModel, ctx string) {
	t.Helper()
	for _, n := range m.nodes() {
		if m.dead[n] {
			continue
		}
		got := g.CyclicComponent(n, nil)
		want := m.refComponent(n)
		if (got == nil) != (want == nil) || !equalSets(got, want) {
			t.Fatalf("%s: node %d: engine comp %v, scan comp %v", ctx, n, sortedCopy(got), sortedCopy(want))
		}
	}
}

func TestIncSCCDirected(t *testing.T) {
	m := newIncModel()
	g := NewIncSCC(func(n int) bool { return m.active[n] })

	addEdge := func(a, b int) {
		m.succs[a] = append(m.succs[a], b)
		if _, ok := m.succs[b]; !ok {
			m.succs[b] = nil
		}
		g.AddEdge(a, b)
	}
	activate := func(n int) {
		if _, ok := m.succs[n]; !ok {
			m.succs[n] = nil
		}
		m.active[n] = true
		g.Activate(n)
	}

	// A 2-cycle forms only once both endpoints are active.
	addEdge(1, 2)
	addEdge(2, 1)
	checkAgainstRef(t, g, m, "both inactive")
	activate(1)
	checkAgainstRef(t, g, m, "one active")
	activate(2)
	checkAgainstRef(t, g, m, "2-cycle")
	if got := g.CyclicComponent(1, nil); !equalSets(got, []int{1, 2}) {
		t.Fatalf("expected comp {1,2}, got %v", got)
	}

	// A self-loop is a cyclic singleton.
	addEdge(3, 3)
	activate(3)
	if got := g.CyclicComponent(3, nil); !equalSets(got, []int{3}) {
		t.Fatalf("self-loop comp: got %v", got)
	}

	// Chain 4 -> 5 -> 6 stays acyclic; closing 6 -> 4 merges all three and
	// absorbs the existing 2-cycle when bridged.
	for _, n := range []int{4, 5, 6} {
		activate(n)
	}
	addEdge(4, 5)
	addEdge(5, 6)
	checkAgainstRef(t, g, m, "chain")
	addEdge(6, 4)
	checkAgainstRef(t, g, m, "3-cycle")
	addEdge(2, 4) // bridge into the triangle
	addEdge(6, 1) // and back: everything collapses into one component
	checkAgainstRef(t, g, m, "merged 5-comp")
	if got := g.CyclicComponent(5, nil); !equalSets(got, []int{1, 2, 4, 5, 6}) {
		t.Fatalf("merged comp: got %v", sortedCopy(got))
	}

	// Buffer reuse appends.
	buf := make([]int, 0, 8)
	got := g.CyclicComponent(4, buf)
	if !equalSets(got, []int{1, 2, 4, 5, 6}) {
		t.Fatalf("buffered comp: got %v", sortedCopy(got))
	}

	// Release the whole component (components die whole); slots recycle.
	before := g.Nodes()
	for _, n := range []int{1, 2, 4, 5, 6} {
		m.dead[n] = true
		g.Release(n)
	}
	if g.Nodes() != before-5 {
		t.Fatalf("expected %d live nodes, got %d", before-5, g.Nodes())
	}
	checkAgainstRef(t, g, m, "after release")

	// Recycled slots must not resurrect stale adjacency: build a fresh cycle
	// reusing freed slots.
	for _, n := range []int{10, 11, 12, 13, 14} {
		activate(n)
	}
	addEdge(10, 11)
	addEdge(11, 12)
	addEdge(12, 10)
	addEdge(13, 14)
	checkAgainstRef(t, g, m, "recycled slots")
	if got := g.CyclicComponent(11, nil); !equalSets(got, []int{10, 11, 12}) {
		t.Fatalf("recycled comp: got %v", sortedCopy(got))
	}
}

// TestIncSCCActivationOrder pins the regression the finished-only rule makes
// possible: all edges of a cycle exist before any endpoint activates, so the
// cycle must appear exactly when the last member activates — a pure
// eligibility change with no new edges.
func TestIncSCCActivationOrder(t *testing.T) {
	m := newIncModel()
	g := NewIncSCC(func(n int) bool { return m.active[n] })
	add := func(a, b int) {
		m.succs[a] = append(m.succs[a], b)
		if _, ok := m.succs[b]; !ok {
			m.succs[b] = nil
		}
		g.AddEdge(a, b)
	}
	add(1, 2)
	add(2, 3)
	add(3, 1)
	for _, n := range []int{3, 1} {
		m.active[n] = true
		g.Activate(n)
		checkAgainstRef(t, g, m, "partial activation")
	}
	if got := g.CyclicComponent(1, nil); got != nil {
		t.Fatalf("cycle reported before last member active: %v", got)
	}
	m.active[2] = true
	g.Activate(2)
	if got := g.CyclicComponent(2, nil); !equalSets(got, []int{1, 2, 3}) {
		t.Fatalf("cycle missing after last activation: got %v", sortedCopy(got))
	}
	checkAgainstRef(t, g, m, "full activation")
}

// TestIncSCCCycleKeepsForwardSideOnTop replays 13 operations that once hit
// a reorder bug in the cycle case: the insertion closing a cycle gave the
// forward-only components the slots just above the merged component, not
// the top of the window, so one could drop below a predecessor outside the
// window, and a later forward search was pruned at it. The engine then
// reported node 5's component as {5}; Tarjan finds {5, 10, 11}.
func TestIncSCCCycleKeepsForwardSideOnTop(t *testing.T) {
	m := newIncModel()
	g := NewIncSCC(func(n int) bool { return m.active[n] })
	ops := []struct {
		activate bool
		a, b     int
	}{
		{true, 12, 0}, {false, 12, 13}, {false, 13, 11}, {false, 10, 11},
		{false, 13, 8}, {true, 13, 0}, {false, 8, 12}, {true, 10, 0},
		{true, 11, 0}, {false, 11, 5}, {true, 8, 0}, {true, 5, 0},
		{false, 5, 10},
	}
	for i, op := range ops {
		for _, n := range []int{op.a, op.b} {
			if _, ok := m.succs[n]; !ok {
				m.succs[n] = nil
			}
		}
		if op.activate {
			m.active[op.a] = true
			g.Activate(op.a)
		} else {
			m.succs[op.a] = append(m.succs[op.a], op.b)
			g.AddEdge(op.a, op.b)
		}
		checkAgainstRef(t, g, m, fmt.Sprintf("op %d", i+1))
	}
	if got := g.CyclicComponent(5, nil); !equalSets(got, []int{5, 10, 11}) {
		t.Fatalf("comp of 5: got %v, want [5 10 11]", sortedCopy(got))
	}
}

// TestIncSCCRandomized is the differential property test: random edge
// streams with interleaved activations and ICD-style reachability GC,
// compared against SCCFrom after every step. Every walk over the model is in
// node order, so a seed names one schedule; seed 157 is one that the
// cycle-case reorder bug pinned above broke. All schedules run on one
// engine, Reset between them, as ICD carries its engine from run to run:
// the node values repeat across schedules, so anything a Reset fails to
// forget surfaces as a wrong component.
func TestIncSCCRandomized(t *testing.T) {
	var m *incModel
	g := NewIncSCC(func(n int) bool { return m.active[n] })
	for seed := int64(1); seed <= 160; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m = newIncModel()
		g.Reset()
		if g.Nodes() != 0 || g.Stats() != (IncSCCStats{}) {
			t.Fatalf("seed %d: Reset left %d nodes and stats %+v", seed, g.Nodes(), g.Stats())
		}
		nodes := 3 + rng.Intn(20)
		ensure := func(n int) {
			if _, ok := m.succs[n]; !ok {
				m.succs[n] = nil
			}
		}
		steps := 60 + rng.Intn(120)
		next := nodes // fresh node ids after GC
		for i := 0; i < steps; i++ {
			switch k := rng.Intn(10); {
			case k < 6: // add edge
				a, b := rng.Intn(next), rng.Intn(next)
				if m.dead[a] || m.dead[b] {
					continue
				}
				ensure(a)
				ensure(b)
				if rng.Intn(12) == 0 {
					b = a // occasional self-loop
				}
				m.succs[a] = append(m.succs[a], b)
				g.AddEdge(a, b)
			case k < 9: // activate a random node
				n := rng.Intn(next)
				if m.dead[n] {
					continue
				}
				ensure(n)
				m.active[n] = true
				g.Activate(n)
			default: // ICD-style GC: sweep nodes unreachable from the roots
				if rng.Intn(3) > 0 {
					continue
				}
				roots := make([]int, 0, 8)
				for _, n := range m.nodes() {
					if m.dead[n] {
						continue
					}
					// Inactive nodes model unfinished transactions: always
					// roots, like the manager's per-thread currents.
					if !m.active[n] || rng.Intn(3) == 0 {
						roots = append(roots, n)
					}
				}
				reach := make(map[int]bool)
				var stack []int
				for _, r := range roots {
					if !reach[r] {
						reach[r] = true
						stack = append(stack, r)
					}
				}
				for len(stack) > 0 {
					n := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, s := range m.succs[n] {
						if !reach[s] && !m.dead[s] {
							reach[s] = true
							stack = append(stack, s)
						}
					}
				}
				for _, n := range m.nodes() {
					if !m.dead[n] && !reach[n] {
						m.dead[n] = true
						g.Release(n)
					}
				}
				next += 2 // new node ids appear after a sweep
			}
			checkAgainstRef(t, g, m, "seed")
		}
		// Final SCC multiset comparison: every cyclic component the scan
		// engine finds, the incremental engine must report identically.
		var all []int
		for _, n := range m.nodes() {
			if m.include(n) {
				all = append(all, n)
			}
		}
		seen := make(map[int]bool)
		for _, comps := range SCCAll(all, m.succ, m.include) {
			if len(comps) == 1 && !HasSelfLoop(comps[0], func(n int) []int {
				return filtered(m.succ(n), m.include)
			}) {
				continue
			}
			got := g.CyclicComponent(comps[0], nil)
			if !equalSets(got, comps) {
				t.Fatalf("seed %d: comp of %d: engine %v, scan %v", seed, comps[0], sortedCopy(got), sortedCopy(comps))
			}
			for _, n := range comps {
				seen[n] = true
			}
		}
		// And no component the scan engine does not find.
		for _, n := range all {
			if !seen[n] && g.CyclicComponent(n, nil) != nil {
				t.Fatalf("seed %d: engine reports spurious comp at %d", seed, n)
			}
		}
	}
}
