package graph

// PathSearch is FindPath over dense node indices, for a caller that asks
// many path questions of one growing graph. It keeps its scratch from call
// to call: visited marks, parents, the stack and the path buffer. Visited
// marks are stamps, so a new search clears nothing, and a search allocates
// only when the graph is larger than any it has searched before.
//
// The zero value is ready to use. A PathSearch is not safe for concurrent
// use.
type PathSearch struct {
	stamp  []uint32 // stamp[v] == gen: v was seen by the current search
	parent []int32  // v's parent on the search tree, valid while v is seen
	gen    uint32
	stack  []int32
	path   []int32
}

// Find returns a path from from to to over the nodes 0..n-1, inclusive of
// both endpoints, or nil if none exists. succ must return indices below n.
// The returned slice is overwritten by the next call.
//
// Find pushes, pops and calls succ in exactly FindPath's order, and like
// FindPath it leaves from unmarked at the start, so the two visit the same
// nodes and return the same path. A path must contain at least one edge:
// Find(n, v, v, succ) finds a cycle through v if one exists.
func (s *PathSearch) Find(n int, from, to int32, succ SuccFunc[int32]) []int32 {
	if len(s.stamp) < n {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
		s.parent = append(s.parent, make([]int32, n-len(s.parent))...)
	}
	s.gen++
	if s.gen == 0 {
		// The stamps wrapped: a stale stamp could now equal gen.
		clear(s.stamp)
		s.gen = 1
	}
	gen := s.gen
	stack := s.stack[:0]
	for _, v := range succ(from) {
		if s.stamp[v] != gen {
			s.stamp[v] = gen
			s.parent[v] = from
			stack = append(stack, v)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == to {
			s.stack = stack
			return s.walkBack(n, from, u)
		}
		for _, v := range succ(u) {
			if s.stamp[v] != gen {
				s.stamp[v] = gen
				s.parent[v] = u
				stack = append(stack, v)
			}
		}
	}
	s.stack = stack
	return nil
}

// walkBack reconstructs the path that ends at to by walking parents back to
// from.
func (s *PathSearch) walkBack(n int, from, to int32) []int32 {
	path := append(s.path[:0], to)
	u := to
	for {
		u = s.parent[u]
		path = append(path, u)
		if u == from {
			break
		}
		if len(path) > n+1 {
			panic("graph: parent chain cycle")
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	s.path = path
	return path
}
