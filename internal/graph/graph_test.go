package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// adj builds a SuccFunc from an adjacency map.
func adj(m map[int][]int) SuccFunc[int] {
	return func(n int) []int { return m[n] }
}

func TestReachableLinear(t *testing.T) {
	g := adj(map[int][]int{1: {2}, 2: {3}, 3: {4}})
	if !Reachable(1, 4, g) {
		t.Error("1 should reach 4")
	}
	if Reachable(4, 1, g) {
		t.Error("4 should not reach 1")
	}
	if Reachable(1, 1, g) {
		t.Error("1 is not on a cycle")
	}
}

func TestReachableSelfLoop(t *testing.T) {
	g := adj(map[int][]int{1: {1}})
	if !Reachable(1, 1, g) {
		t.Error("self-loop means 1 reaches 1")
	}
}

func TestReachableCycle(t *testing.T) {
	g := adj(map[int][]int{1: {2}, 2: {3}, 3: {1}})
	for _, n := range []int{1, 2, 3} {
		if !Reachable(n, n, g) {
			t.Errorf("%d should reach itself around the cycle", n)
		}
	}
}

func TestReachableDiamond(t *testing.T) {
	g := adj(map[int][]int{1: {2, 3}, 2: {4}, 3: {4}})
	if !Reachable(1, 4, g) {
		t.Error("1 should reach 4 through either branch")
	}
	if Reachable(2, 3, g) {
		t.Error("2 should not reach 3")
	}
}

func TestFindPathReturnsValidPath(t *testing.T) {
	g := adj(map[int][]int{1: {2, 5}, 2: {3}, 3: {4}, 5: {4}})
	p := FindPath(1, 4, g)
	if p == nil {
		t.Fatal("expected a path")
	}
	if p[0] != 1 || p[len(p)-1] != 4 {
		t.Fatalf("path endpoints wrong: %v", p)
	}
	for i := 0; i+1 < len(p); i++ {
		found := false
		for _, s := range g(p[i]) {
			if s == p[i+1] {
				found = true
			}
		}
		if !found {
			t.Fatalf("path step %d->%d is not an edge", p[i], p[i+1])
		}
	}
}

func TestFindPathNone(t *testing.T) {
	g := adj(map[int][]int{1: {2}})
	if p := FindPath(2, 1, g); p != nil {
		t.Errorf("expected no path, got %v", p)
	}
}

func TestSCCFromSimpleCycle(t *testing.T) {
	g := adj(map[int][]int{1: {2}, 2: {1}, 3: {1}})
	comp := SCCFrom(1, g, nil)
	sort.Ints(comp)
	if len(comp) != 2 || comp[0] != 1 || comp[1] != 2 {
		t.Errorf("expected {1,2}, got %v", comp)
	}
}

func TestSCCFromAcyclicReturnsNil(t *testing.T) {
	g := adj(map[int][]int{1: {2}, 2: {3}})
	if comp := SCCFrom(1, g, nil); comp != nil {
		t.Errorf("expected nil for acyclic node, got %v", comp)
	}
}

func TestSCCFromSelfLoop(t *testing.T) {
	g := adj(map[int][]int{1: {1, 2}})
	comp := SCCFrom(1, g, nil)
	if len(comp) != 1 || comp[0] != 1 {
		t.Errorf("expected singleton {1}, got %v", comp)
	}
}

func TestSCCFromInclude(t *testing.T) {
	// 1 <-> 2 but 2 is excluded: no cycle in the included subgraph.
	g := adj(map[int][]int{1: {2}, 2: {1}})
	include := func(n int) bool { return n != 2 }
	if comp := SCCFrom(1, g, include); comp != nil {
		t.Errorf("expected nil when cycle partner excluded, got %v", comp)
	}
}

func TestSCCFromRootExcluded(t *testing.T) {
	g := adj(map[int][]int{1: {1}})
	if comp := SCCFrom(1, g, func(int) bool { return false }); comp != nil {
		t.Errorf("expected nil for excluded root, got %v", comp)
	}
}

func TestSCCFromLargerComponent(t *testing.T) {
	// Two interlocking cycles share nodes: 1->2->3->1 and 3->4->2.
	g := adj(map[int][]int{1: {2}, 2: {3}, 3: {1, 4}, 4: {2}})
	comp := SCCFrom(1, g, nil)
	sort.Ints(comp)
	want := []int{1, 2, 3, 4}
	if len(comp) != len(want) {
		t.Fatalf("expected %v, got %v", want, comp)
	}
	for i := range want {
		if comp[i] != want[i] {
			t.Fatalf("expected %v, got %v", want, comp)
		}
	}
}

func TestSCCAllPartitions(t *testing.T) {
	g := adj(map[int][]int{1: {2}, 2: {1}, 3: {4}, 4: {3}, 5: {1, 3}})
	comps := SCCAll([]int{1, 2, 3, 4, 5}, g, nil)
	sizes := map[int]int{}
	total := 0
	for _, c := range comps {
		sizes[len(c)]++
		total += len(c)
	}
	if total != 5 {
		t.Errorf("components should cover all 5 nodes, covered %d", total)
	}
	if sizes[2] != 2 || sizes[1] != 1 {
		t.Errorf("expected two 2-components and one singleton, got %v", sizes)
	}
}

func TestSCCAllReverseTopologicalOrder(t *testing.T) {
	// 1 -> 2 -> 3 (all singletons). Tarjan emits sinks first.
	g := adj(map[int][]int{1: {2}, 2: {3}})
	comps := SCCAll([]int{1, 2, 3}, g, nil)
	if len(comps) != 3 {
		t.Fatalf("expected 3 components, got %d", len(comps))
	}
	if comps[0][0] != 3 || comps[2][0] != 1 {
		t.Errorf("expected reverse topological order [3 2 1], got %v", comps)
	}
}

func TestHasSelfLoop(t *testing.T) {
	g := adj(map[int][]int{1: {1}, 2: {1}})
	if !HasSelfLoop(1, g) {
		t.Error("1 has a self-loop")
	}
	if HasSelfLoop(2, g) {
		t.Error("2 has no self-loop")
	}
}

// randomGraph builds a random digraph over n nodes with edge probability p.
func randomGraph(rng *rand.Rand, n int, p float64) map[int][]int {
	m := make(map[int][]int)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < p {
				m[i] = append(m[i], j)
			}
		}
	}
	return m
}

// TestPropertySCCMutualReachability checks the defining property of SCCs on
// random graphs: two distinct nodes are in the same component returned by
// SCCFrom iff each reaches the other.
func TestPropertySCCMutualReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		g := adj(randomGraph(rng, n, 0.15))
		root := rng.Intn(n)
		comp := SCCFrom(root, g, nil)
		inComp := map[int]bool{}
		for _, c := range comp {
			inComp[c] = true
		}
		for other := 0; other < n; other++ {
			mutual := false
			if other == root {
				mutual = Reachable(root, root, g)
			} else {
				mutual = Reachable(root, other, g) && Reachable(other, root, g)
			}
			if mutual != inComp[other] {
				t.Fatalf("trial %d: node %d mutual=%v inComp=%v (root %d, comp %v)",
					trial, other, mutual, inComp[other], root, comp)
			}
		}
	}
}

// TestPropertySCCAllIsPartition checks SCCAll covers each node exactly once.
func TestPropertySCCAllIsPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		g := adj(randomGraph(rng, n, 0.2))
		nodes := make([]int, n)
		for i := range nodes {
			nodes[i] = i
		}
		seen := map[int]int{}
		for _, c := range SCCAll(nodes, g, nil) {
			for _, m := range c {
				seen[m]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, count := range seen {
			if count != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFindPathAgreesWithReachable cross-checks the two traversals.
func TestPropertyFindPathAgreesWithReachable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		g := adj(randomGraph(rng, n, 0.2))
		a, b := rng.Intn(n), rng.Intn(n)
		return (FindPath(a, b, g) != nil) == Reachable(a, b, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSCCFromChainWithBackEdge(b *testing.B) {
	const n = 1000
	m := make(map[int][]int, n)
	for i := 0; i < n-1; i++ {
		m[i] = []int{i + 1}
	}
	m[n-1] = []int{0}
	g := adj(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if comp := SCCFrom(0, g, nil); len(comp) != n {
			b.Fatal("wrong component")
		}
	}
}
