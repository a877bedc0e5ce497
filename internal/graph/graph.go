// Package graph provides the directed-graph algorithms the atomicity
// checkers run, plus the reference implementations their tests check them
// against.
//
// Production runs two algorithms, one per cycle question the paper asks:
//
//   - IncSCC answers ICD's "is this finished transaction on a cycle of
//     finished transactions?" (§3.2.3) from an SCC condensation maintained
//     as edges arrive.
//   - A depth-first search answers Velodrome's and PCD's "did this edge
//     close a cycle?" (§2, §3.3), and also returns the witness path a
//     violation report needs. Velodrome (and ICD's eager-detection
//     ablation) run FindPath over their transaction nodes. PCD runs
//     PathSearch, the same search over dense node indices, which keeps its
//     scratch from call to call; FindPath is its reference.
//
// SCCFrom, SCCAll, Reachable and HasSelfLoop are reference implementations
// (Tarjan components and plain reachability) that the differential tests
// compare the production answers against; no checker calls them.
//
// The algorithms are generic over the node type, except PathSearch, whose
// nodes are int32 indices. Rather than forcing callers to materialize an
// adjacency structure, the traversals take a successor function. The IDG
// stores adjacency on the transaction nodes themselves, so a closure over
// those nodes is the natural representation; PCD's PDG keeps successor
// lists by node index, and its closure reads those.
//
// All algorithms are iterative (explicit stacks); dependence graphs over long
// executions can be deep enough to overflow the goroutine stack with naive
// recursion.
package graph

// SuccFunc returns the successors of a node. It may return the same slice on
// every call; the algorithms do not retain or mutate it.
type SuccFunc[N comparable] func(N) []N

// Reachable reports whether to is reachable from from by following successor
// edges. A node is considered reachable from itself only via a non-empty
// path, except when from == to and a self-loop or cycle exists; callers that
// want the trivial answer for from == to should special-case it. Here,
// Reachable(from, from) reports whether from lies on a cycle through itself.
func Reachable[N comparable](from, to N, succ SuccFunc[N]) bool {
	seen := make(map[N]bool)
	stack := []N{}
	for _, s := range succ(from) {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		for _, s := range succ(n) {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// FindPath returns a path from from to to (inclusive of both endpoints), or
// nil if none exists. Like Reachable, the path must contain at least one
// edge: FindPath(n, n, succ) finds a cycle through n if one exists.
func FindPath[N comparable](from, to N, succ SuccFunc[N]) []N {
	parent := make(map[N]N)
	seen := make(map[N]bool)
	stack := []N{}
	for _, s := range succ(from) {
		if !seen[s] {
			seen[s] = true
			parent[s] = from
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			// Reconstruct the path by walking parents back to from.
			rev := []N{n}
			for {
				n = parent[n]
				rev = append(rev, n)
				if n == from {
					break
				}
				if len(rev) > len(parent)+2 {
					panic("graph: parent chain cycle")
				}
			}
			path := make([]N, len(rev))
			for i, v := range rev {
				path[len(rev)-1-i] = v
			}
			return path
		}
		for _, s := range succ(n) {
			if !seen[s] {
				seen[s] = true
				parent[s] = n
				stack = append(stack, s)
			}
		}
	}
	return nil
}

// tarjanFrame is an explicit DFS stack frame for the iterative Tarjan SCC
// computation.
type tarjanFrame[N comparable] struct {
	node  N
	succs []N
	next  int // index of the next unvisited successor
}

// SCCFrom computes the strongly connected component containing root, using
// Tarjan's algorithm restricted to nodes for which include returns true
// (include == nil means all nodes). It returns the members of root's
// component. A component of size 1 is returned only if the node has a
// self-loop; otherwise SCCFrom returns nil, meaning root is not part of any
// cycle in the included subgraph.
//
// With include set to "transaction has finished and is live", it computes
// exactly the component ICD must report at a transaction finish (§3.2.3);
// ICD's tests use it as the reference for IncSCC.
func SCCFrom[N comparable](root N, succ SuccFunc[N], include func(N) bool) []N {
	if include != nil && !include(root) {
		return nil
	}
	type vstate struct {
		index   int
		lowlink int
		onStack bool
	}
	states := make(map[N]*vstate)
	var compStack []N
	var frames []tarjanFrame[N]
	nextIndex := 0
	var rootComp []N

	push := func(n N) {
		st := &vstate{index: nextIndex, lowlink: nextIndex, onStack: true}
		nextIndex++
		states[n] = st
		compStack = append(compStack, n)
		frames = append(frames, tarjanFrame[N]{node: n, succs: filtered(succ(n), include)})
	}
	push(root)

	for len(frames) > 0 {
		f := &frames[len(frames)-1]
		st := states[f.node]
		if f.next < len(f.succs) {
			s := f.succs[f.next]
			f.next++
			sst, ok := states[s]
			switch {
			case !ok:
				push(s)
			case sst.onStack:
				if sst.index < st.lowlink {
					st.lowlink = sst.index
				}
			}
			continue
		}
		// All successors processed: pop the frame.
		frames = frames[:len(frames)-1]
		if len(frames) > 0 {
			pst := states[frames[len(frames)-1].node]
			if st.lowlink < pst.lowlink {
				pst.lowlink = st.lowlink
			}
		}
		if st.lowlink == st.index {
			// f.node is an SCC root: pop its component.
			var comp []N
			for {
				m := compStack[len(compStack)-1]
				compStack = compStack[:len(compStack)-1]
				states[m].onStack = false
				comp = append(comp, m)
				if m == f.node {
					break
				}
			}
			if contains(comp, root) {
				rootComp = comp
			}
		}
	}

	if len(rootComp) == 1 {
		// Singleton components are cycles only with a self-loop.
		for _, s := range filtered(succ(root), include) {
			if s == root {
				return rootComp
			}
		}
		return nil
	}
	return rootComp
}

// SCCAll computes all strongly connected components of the subgraph induced
// by nodes (and include, if non-nil), returning them in reverse topological
// order (Tarjan's natural output order). Singleton components are included
// regardless of self-loops; callers that only want cyclic components should
// filter.
func SCCAll[N comparable](nodes []N, succ SuccFunc[N], include func(N) bool) [][]N {
	type vstate struct {
		index   int
		lowlink int
		onStack bool
	}
	states := make(map[N]*vstate)
	var compStack []N
	var comps [][]N
	nextIndex := 0

	for _, start := range nodes {
		if include != nil && !include(start) {
			continue
		}
		if _, ok := states[start]; ok {
			continue
		}
		var frames []tarjanFrame[N]
		push := func(n N) {
			st := &vstate{index: nextIndex, lowlink: nextIndex, onStack: true}
			nextIndex++
			states[n] = st
			compStack = append(compStack, n)
			frames = append(frames, tarjanFrame[N]{node: n, succs: filtered(succ(n), include)})
		}
		push(start)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			st := states[f.node]
			if f.next < len(f.succs) {
				s := f.succs[f.next]
				f.next++
				sst, ok := states[s]
				switch {
				case !ok:
					push(s)
				case sst.onStack:
					if sst.index < st.lowlink {
						st.lowlink = sst.index
					}
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				pst := states[frames[len(frames)-1].node]
				if st.lowlink < pst.lowlink {
					pst.lowlink = st.lowlink
				}
			}
			if st.lowlink == st.index {
				var comp []N
				for {
					m := compStack[len(compStack)-1]
					compStack = compStack[:len(compStack)-1]
					states[m].onStack = false
					comp = append(comp, m)
					if m == f.node {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// HasSelfLoop reports whether n has an edge to itself.
func HasSelfLoop[N comparable](n N, succ SuccFunc[N]) bool {
	for _, s := range succ(n) {
		if s == n {
			return true
		}
	}
	return false
}

func filtered[N comparable](succs []N, include func(N) bool) []N {
	if include == nil {
		return succs
	}
	out := succs[:0:0]
	for _, s := range succs {
		if include(s) {
			out = append(out, s)
		}
	}
	return out
}

func contains[N comparable](xs []N, n N) bool {
	for _, x := range xs {
		if x == n {
			return true
		}
	}
	return false
}
