package graph

import (
	"fmt"
	"sort"
)

// Online maintains a topological order of a growing DAG under node and
// edge insertions, detecting the first edge whose insertion closes a
// directed cycle. It implements the Pearce–Kelly dynamic topological
// ordering algorithm: when an inserted edge u -> v inverts the current
// order (ord(v) < ord(u)), a bounded bidirectional search discovers the
// affected region — the descendants of v and the ancestors of u whose
// order indices lie between ord(v) and ord(u) — and permutes only those
// indices. Work per insertion is proportional to the affected region, so
// edges that respect arrival order (the common case when transactions are
// fed in commit order, the paper's nearly-unique-graph regime) cost O(1)
// and the amortized cost per committed transaction stays near-constant.
//
// Online is the substrate of core.Incremental; it is not safe for
// concurrent use.
type Online struct {
	ord []int // node -> order index
	out [][]Edge
	in  [][]Edge

	// DFS scratch, reused across insertions.
	mark  []int
	stamp int
}

// NewOnline returns an empty online ordering with no nodes.
func NewOnline() *Online { return &Online{} }

// NewOnlineOrdered returns an online ordering of nodes 0..n-1 holding
// edges, whose topological order is the identity. Every edge must have
// From < To: under the identity order that is the whole proof of
// acyclicity, which AddEdge would otherwise establish one edge at a time,
// and an edge that breaks it panics. The adjacency lists keep the order
// of edges and are cut from two arenas with no spare capacity, so the
// first AddEdge at a node copies its list out rather than growing into
// its neighbour's.
func NewOnlineOrdered(n int, edges []Edge) *Online {
	t := &Online{
		ord:  make([]int, n),
		out:  make([][]Edge, n),
		in:   make([][]Edge, n),
		mark: make([]int, n),
	}
	deg := make([]int, 2*n) // out-degrees, then in-degrees
	for _, e := range edges {
		if e.From < 0 || e.From >= e.To || e.To >= n {
			panic(fmt.Sprintf("graph: NewOnlineOrdered: edge %d -> %d does not ascend within %d nodes", e.From, e.To, n))
		}
		deg[e.From]++
		deg[n+e.To]++
	}
	outs, ins := make([]Edge, len(edges)), make([]Edge, len(edges))
	o, i := 0, 0
	for v := 0; v < n; v++ {
		t.ord[v] = v
		t.out[v] = outs[o : o : o+deg[v]]
		o += deg[v]
		t.in[v] = ins[i : i : i+deg[n+v]]
		i += deg[n+v]
	}
	for _, e := range edges {
		t.out[e.From] = append(t.out[e.From], e)
		t.in[e.To] = append(t.in[e.To], e)
	}
	return t
}

// Len returns the number of nodes.
func (t *Online) Len() int { return len(t.ord) }

// AddNode appends a new node at the end of the current order and returns
// its index.
func (t *Online) AddNode() int {
	id := len(t.ord)
	t.ord = append(t.ord, id)
	t.out = append(t.out, nil)
	t.in = append(t.in, nil)
	t.mark = append(t.mark, 0)
	return id
}

// Out returns the outgoing edges of node v. The slice must not be
// modified.
func (t *Online) Out(v int) []Edge { return t.out[v] }

// Ord returns the current order index of node v.
func (t *Online) Ord(v int) int { return t.ord[v] }

// AddEdge inserts e, restoring the topological order. If the insertion
// closes a directed cycle it returns the cycle's edges (e first, so each
// edge's To is the next edge's From and the last edge re-enters e.From);
// the ordering is then stale and the structure should only be read, not
// grown. It returns nil when the graph remains acyclic.
func (t *Online) AddEdge(e Edge) []Edge {
	u, v := e.From, e.To
	t.out[u] = append(t.out[u], e)
	t.in[v] = append(t.in[v], e)
	if u == v {
		return []Edge{e}
	}
	if t.ord[u] < t.ord[v] {
		return nil
	}
	lb, ub := t.ord[v], t.ord[u]

	// Forward search from v over nodes with ord <= ub. Any path from v to
	// u has strictly increasing order indices (the pre-insertion invariant),
	// so pruning at ub cannot miss a cycle.
	t.stamp++
	fwd := []int{v}
	t.mark[v] = t.stamp
	parent := map[int]Edge{}
	stack := []int{v}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, oe := range t.out[x] {
			w := oe.To
			if w == u {
				// Cycle: e (u->v), then the tree path v ~> x, then oe.
				cycle := []Edge{e}
				var path []Edge
				for y := x; y != v; y = parent[y].From {
					path = append(path, parent[y])
				}
				for i := len(path) - 1; i >= 0; i-- {
					cycle = append(cycle, path[i])
				}
				return append(cycle, oe)
			}
			if t.ord[w] > ub || t.mark[w] == t.stamp {
				continue
			}
			t.mark[w] = t.stamp
			parent[w] = oe
			fwd = append(fwd, w)
			stack = append(stack, w)
		}
	}

	// Backward search from u over nodes with ord >= lb. No overlap with
	// fwd is possible: a shared node would witness a v ~> u path, found
	// above.
	bwdStamp := -t.stamp
	bwd := []int{u}
	t.mark[u] = bwdStamp
	stack = append(stack[:0], u)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ie := range t.in[x] {
			w := ie.From
			if t.ord[w] < lb || t.mark[w] == bwdStamp {
				continue
			}
			t.mark[w] = bwdStamp
			bwd = append(bwd, w)
			stack = append(stack, w)
		}
	}

	// Reorder: the ancestors (bwd) take the smallest affected indices, the
	// descendants (fwd) the largest, each group keeping its relative order.
	byOrd := func(s []int) {
		sort.Slice(s, func(i, j int) bool { return t.ord[s[i]] < t.ord[s[j]] })
	}
	byOrd(fwd)
	byOrd(bwd)
	slots := make([]int, 0, len(fwd)+len(bwd))
	for _, x := range bwd {
		slots = append(slots, t.ord[x])
	}
	for _, x := range fwd {
		slots = append(slots, t.ord[x])
	}
	sort.Ints(slots)
	nodes := append(bwd, fwd...)
	for i, x := range nodes {
		t.ord[x] = slots[i]
	}
	return nil
}
