package graph

// UnionFind is a disjoint-set structure over a fixed element count, with
// path halving and union by size, shared by the component decompositions
// (internal/shard over histories, internal/workload over plans), which
// know their element counts up front. Root identity is arbitrary;
// callers needing deterministic grouping should order groups by their
// smallest member, not by root.
type UnionFind struct {
	parent []int
	size   []int
}

// NewUnionFind returns a structure over elements 0..n-1, each its own set.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
		u.size[i] = 1
	}
	return u
}

// Find returns the representative of x's set.
func (u *UnionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b.
func (u *UnionFind) Union(a, b int) {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}
