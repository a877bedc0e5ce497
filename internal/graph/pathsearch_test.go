package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkPathSearch decodes data into a series of graphs, each followed by a
// few path queries, and answers every query with both FindPath and s. The
// two must return the same path and call succ on the same nodes in the same
// order: a caller that charges per visit, as PCD does, pays for exactly
// that sequence. s is reused throughout, and the graphs' node counts rise
// and fall with the input.
func checkPathSearch(t testing.TB, s *PathSearch, data []byte) {
	t.Helper()
	i := 0
	next := func() int {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return int(b)
	}
	for graphs := 0; i < len(data); graphs++ {
		n := 1 + next()%48
		succs := make([][]int32, n)
		for e := next() % (3*n + 1); e > 0; e-- {
			u := next() % n
			succs[u] = append(succs[u], int32(next()%n))
		}
		for q := 1 + next()%6; q > 0; q-- {
			from, to := int32(next()%n), int32(next()%n)
			var want, got []int32
			ref := FindPath(from, to, func(v int32) []int32 {
				want = append(want, v)
				return succs[v]
			})
			path := s.Find(n, from, to, func(v int32) []int32 {
				got = append(got, v)
				return succs[v]
			})
			if (path == nil) != (ref == nil) || !slices.Equal(path, ref) {
				t.Fatalf("graph %d (%d nodes, succs %v): %d -> %d: path %v, FindPath %v",
					graphs, n, succs, from, to, path, ref)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("graph %d (%d nodes, succs %v): %d -> %d: succ called on %v, FindPath on %v",
					graphs, n, succs, from, to, got, want)
			}
		}
	}
}

// pathSearchInput is the randomized test's input for one seed.
func pathSearchInput(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 16+rng.Intn(240))
	rng.Read(data)
	return data
}

// TestPathSearchMatchesFindPath holds PathSearch to FindPath on random
// graphs, with one PathSearch reused across every query. Halfway through,
// the stamps are forced to wrap while every slot holds a stamp from early
// in the first cycle of stamps: a wrap that kept them would see nodes as
// visited before the search reached them.
func TestPathSearchMatchesFindPath(t *testing.T) {
	var s PathSearch
	for seed := int64(1); seed <= 300; seed++ {
		if seed == 150 {
			s.gen = math.MaxUint32 - 1
			for v := range s.stamp {
				s.stamp[v] = uint32(1 + v%3)
			}
		}
		checkPathSearch(t, &s, pathSearchInput(seed))
	}
	if s.gen >= math.MaxUint32-1 || len(s.stamp) < 40 {
		t.Fatalf("stamp %d over %d slots: the test did not wrap the stamps or grow the graph", s.gen, len(s.stamp))
	}
}

// FuzzPathSearch runs the randomized test's check on arbitrary input, then
// runs it again on the same PathSearch with its stamps about to wrap.
func FuzzPathSearch(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(pathSearchInput(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s PathSearch
		checkPathSearch(t, &s, data)
		s.gen = math.MaxUint32 - 1
		checkPathSearch(t, &s, data)
	})
}
