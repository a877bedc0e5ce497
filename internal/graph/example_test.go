package graph_test

import (
	"fmt"

	"doublechecker/internal/graph"
)

// ExampleSCCFrom computes the strongly connected component of a node, the
// answer ICD must give when a transaction finishes.
func ExampleSCCFrom() {
	adj := map[int][]int{1: {2}, 2: {3}, 3: {1, 4}, 4: nil}
	comp := graph.SCCFrom(1, func(n int) []int { return adj[n] }, nil)
	fmt.Println(len(comp))
	// Output: 3
}
