// Package graph provides a compact directed multigraph with typed edges,
// cycle detection, strongly connected components, topological sorting, and
// reachability. It is the shared substrate for every isolation checker in
// this repository: nodes are transaction indices and edges carry the
// dependency kind (SO, RT, WR, WW, RW, ...) plus the object they concern,
// so that detected cycles can be reported back as human-readable
// counterexamples.
package graph

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// EdgeKind identifies the dependency relation an edge belongs to.
type EdgeKind uint8

// Edge kinds, following the terminology of Adya-style dependency graphs.
const (
	SO  EdgeKind = iota // session order
	RT                  // real-time order
	WR                  // write-read (read-from) dependency
	WW                  // write-write dependency
	RW                  // read-write anti-dependency
	AUX                 // auxiliary edge (e.g. a composed SI edge)
)

// String returns the conventional name of the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case SO:
		return "SO"
	case RT:
		return "RT"
	case WR:
		return "WR"
	case WW:
		return "WW"
	case RW:
		return "RW"
	case AUX:
		return "AUX"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
}

// ParseEdgeKind maps a conventional edge-kind name back to its EdgeKind.
func ParseEdgeKind(s string) (EdgeKind, error) {
	for _, k := range []EdgeKind{SO, RT, WR, WW, RW, AUX} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("graph: unknown edge kind %q", s)
}

// MarshalJSON serializes the kind as its conventional name, so cycles in
// API responses read "WR"/"RW" rather than opaque integers.
func (k EdgeKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON parses the conventional name form written by MarshalJSON.
func (k *EdgeKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := ParseEdgeKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// Edge is a typed, labelled edge between two nodes. Obj is the object (key)
// the dependency concerns; it is empty for SO, RT and AUX edges.
type Edge struct {
	From int      `json:"from"`
	To   int      `json:"to"`
	Kind EdgeKind `json:"kind"`
	Obj  string   `json:"obj,omitempty"`
}

// String renders the edge as "From -KIND(obj)-> To".
func (e Edge) String() string {
	if e.Obj == "" {
		return fmt.Sprintf("T%d -%s-> T%d", e.From, e.Kind, e.To)
	}
	return fmt.Sprintf("T%d -%s(%s)-> T%d", e.From, e.Kind, e.Obj, e.To)
}

// Graph is a directed multigraph over nodes 0..n-1. Parallel edges of
// different kinds are permitted and preserved (they matter for
// counterexample reporting).
type Graph struct {
	n   int
	out [][]Edge
	m   int
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	return &Graph{n: n, out: make([][]Edge, n)}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return g.n }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.m }

// AddEdge inserts e. Self-loops are permitted and will be reported as
// cycles of length one. Node indices must be in range.
func (g *Graph) AddEdge(e Edge) {
	if e.From < 0 || e.From >= g.n || e.To < 0 || e.To >= g.n {
		panic(fmt.Sprintf("graph: edge %v out of range [0,%d)", e, g.n))
	}
	g.out[e.From] = append(g.out[e.From], e)
	g.m++
}

// Out returns the outgoing edges of node v. The returned slice must not be
// modified.
func (g *Graph) Out(v int) []Edge { return g.out[v] }

// HasEdge reports whether at least one edge of kind k runs from u to v.
func (g *Graph) HasEdge(u, v int, k EdgeKind) bool {
	for _, e := range g.out[u] {
		if e.To == v && e.Kind == k {
			return true
		}
	}
	return false
}

// Acyclic reports whether the graph has no directed cycle. It runs Kahn's
// algorithm in O(n+m) and allocates no recursion stack.
func (g *Graph) Acyclic() bool {
	indeg := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		for _, e := range g.out[u] {
			indeg[e.To]++
		}
	}
	queue := make([]int, 0, g.n)
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, e := range g.out[v] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	return seen == g.n
}

// FindCycle returns the edges of some directed cycle, or nil if the graph
// is acyclic. The cycle returned is simple: each node appears at most once.
// It uses an iterative colouring DFS so that arbitrarily deep graphs do not
// overflow the goroutine stack.
func (g *Graph) FindCycle() []Edge {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]uint8, g.n)
	parent := make([]Edge, g.n) // edge used to enter the node
	type frame struct {
		v    int
		next int
	}
	for root := 0; root < g.n; root++ {
		if color[root] != white {
			continue
		}
		stack := []frame{{v: root}}
		color[root] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(g.out[f.v]) {
				e := g.out[f.v][f.next]
				f.next++
				switch color[e.To] {
				case white:
					color[e.To] = grey
					parent[e.To] = e
					stack = append(stack, frame{v: e.To})
				case grey:
					// Found a back edge e: (f.v -> e.To); unwind parents.
					cycle := []Edge{e}
					for v := f.v; v != e.To; {
						pe := parent[v]
						cycle = append(cycle, pe)
						v = pe.From
					}
					// Reverse into forward order starting at e.To.
					for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
						cycle[i], cycle[j] = cycle[j], cycle[i]
					}
					return cycle
				}
			} else {
				color[f.v] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// SCCs returns the strongly connected components of the graph in reverse
// topological order, using an iterative Tarjan algorithm. Singleton
// components without a self-loop are included.
func (g *Graph) SCCs() [][]int {
	const unvisited = -1
	index := make([]int, g.n)
	low := make([]int, g.n)
	onStack := make([]bool, g.n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		sccs    [][]int
		tstack  []int
		counter int
	)
	type frame struct {
		v    int
		next int
	}
	for root := 0; root < g.n; root++ {
		if index[root] != unvisited {
			continue
		}
		stack := []frame{{v: root}}
		index[root] = counter
		low[root] = counter
		counter++
		tstack = append(tstack, root)
		onStack[root] = true
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(g.out[f.v]) {
				w := g.out[f.v][f.next].To
				f.next++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					tstack = append(tstack, w)
					onStack[w] = true
					stack = append(stack, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			} else {
				v := f.v
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					p := stack[len(stack)-1].v
					if low[v] < low[p] {
						low[p] = low[v]
					}
				}
				if low[v] == index[v] {
					var comp []int
					for {
						w := tstack[len(tstack)-1]
						tstack = tstack[:len(tstack)-1]
						onStack[w] = false
						comp = append(comp, w)
						if w == v {
							break
						}
					}
					sccs = append(sccs, comp)
				}
			}
		}
	}
	return sccs
}

// TopoSort returns a topological order of the nodes and true, or nil and
// false if the graph is cyclic.
func (g *Graph) TopoSort() ([]int, bool) {
	indeg := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		for _, e := range g.out[u] {
			indeg[e.To]++
		}
	}
	queue := make([]int, 0, g.n)
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, g.n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, e := range g.out[v] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	if len(order) != g.n {
		return nil, false
	}
	return order, true
}

// Reachable returns the set of nodes reachable from `from` (including
// itself) as a boolean slice. The traversal is a FIFO breadth-first
// search, so nodes are discovered in non-decreasing hop distance.
func (g *Graph) Reachable(from int) []bool {
	return g.ReachableInto(nil, from)
}

// ReachableInto is Reachable reusing buf for the result when it has
// capacity g.Len(), so hot loops issuing many queries stop allocating a
// fresh slice per query. The (possibly re-sliced) result is returned;
// previous contents of buf are discarded.
func (g *Graph) ReachableInto(buf []bool, from int) []bool {
	var seen []bool
	if cap(buf) >= g.n {
		seen = buf[:g.n]
		for i := range seen {
			seen[i] = false
		}
	} else {
		seen = make([]bool, g.n)
	}
	seen[from] = true
	queue := make([]int, 1, 16)
	queue[0] = from
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, e := range g.out[v] {
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return seen
}

// FormatCycle renders a cycle (as returned by FindCycle) on a single line,
// e.g. "T2 -WW(x)-> T3 -RW(x)-> T2".
func FormatCycle(cycle []Edge) string {
	if len(cycle) == 0 {
		return "<no cycle>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "T%d", cycle[0].From)
	for _, e := range cycle {
		if e.Obj == "" {
			fmt.Fprintf(&b, " -%s-> T%d", e.Kind, e.To)
		} else {
			fmt.Fprintf(&b, " -%s(%s)-> T%d", e.Kind, e.Obj, e.To)
		}
	}
	return b.String()
}

// Nodes returns the sorted list of nodes that appear in a cycle.
func Nodes(cycle []Edge) []int {
	set := map[int]struct{}{}
	for _, e := range cycle {
		set[e.From] = struct{}{}
		set[e.To] = struct{}{}
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
