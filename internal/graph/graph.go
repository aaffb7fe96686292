// Package graph provides a compact directed multigraph with typed edges,
// cycle detection, strongly connected components, topological sorting, and
// reachability. It is the shared substrate for every isolation checker in
// this repository: nodes are transaction indices and edges carry the
// dependency kind (SO, RT, WR, WW, RW, ...) plus the object they concern,
// so that detected cycles can be reported back as human-readable
// counterexamples.
//
// There is one static form, one online form and one closure. A Graph is
// collected edge by edge in a Builder and immutable after Build (one edge
// arena in CSR form); every static search — FindCycle, FindComposedCycle,
// SCCs, TopoSort (the one Kahn loop; Acyclic is its verdict), NewClosure
// and ReachPool — reads that form, so a caller with edges in any other
// shape adds them to a Builder rather than to lists of its own. The graph
// that grows while it is searched is Online, whose edges are arcs linked
// into per-node out and in lists: both iterate in insertion order, Out is
// an iterator, and Reload refills an existing graph instead of building a
// new one. Closure is the cached all-pairs reachability of an acyclic
// Graph, ReachPool its row-at-a-time counterpart.
//
// Beside them sit the containers the checkers share: Bitset, UnionFind,
// ParallelDo and Slab. A Slab hands out records from chunks that never
// move — a pointer or an id stays valid until Reset — hands nothing out
// twice between two resets, and keeps its chunks across Reset, so a slab
// refilled to a steady size stops allocating; Online keeps its arcs in
// one and core.Incremental its per-version and per-edge records.
package graph

import (
	"encoding/json"
	"fmt"
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

// Graph is an immutable directed multigraph over nodes 0..n-1 in
// compressed sparse row form: one edge arena grouped by source node and
// an offset table into it, so a graph costs two allocations however
// many nodes it has. Parallel edges of different kinds are permitted and
// preserved (they matter for counterexample reporting). A Graph is made
// by Builder.Build and never changes afterwards, so it may be shared
// between goroutines without synchronization.
type Graph struct {
	off   []int32 // node v's out-edges are edges[off[v]:off[v+1]]
	edges []Edge
}

// Builder collects the edges of a Graph. Edges may arrive in any order;
// Build groups them by source node, keeping each node's edges in arrival
// order.
type Builder struct {
	n      int
	log    []Edge // every edge added so far, in arrival order
	sorted bool   // log is non-decreasing in From
}

// NewBuilder returns a builder for a graph of n nodes. edgeHint sizes
// the edge log; it is a capacity, not a limit.
func NewBuilder(n, edgeHint int) *Builder {
	return &Builder{n: n, log: make([]Edge, 0, edgeHint), sorted: true}
}

// AddEdge records e. Self-loops are permitted and will be reported as
// cycles of length one. Node indices must be in range.
func (b *Builder) AddEdge(e Edge) {
	if e.From < 0 || e.From >= b.n || e.To < 0 || e.To >= b.n {
		panic(fmt.Sprintf("graph: edge %v out of range [0,%d)", e, b.n))
	}
	if m := len(b.log); m > 0 && b.log[m-1].From > e.From {
		b.sorted = false
	}
	b.log = append(b.log, e)
}

// Build returns the graph of the edges added so far. It is a stable
// counting sort of the log by From: node v's out list holds v's edges in
// the order AddEdge saw them. A log that already arrived in ascending
// From order becomes the arena as it is, without a copy.
//
//mtc:hotpath — two allocations per graph (offsets, arena), none per node or edge
func (b *Builder) Build() *Graph {
	log := b.log
	off := make([]int32, b.n+1)
	for i := range log {
		off[log[i].From+1]++
	}
	for v := 0; v < b.n; v++ {
		off[v+1] += off[v]
	}
	if b.sorted {
		return &Graph{off: off, edges: log[:len(log):len(log)]}
	}
	// Scatter with off[v] as node v's write cursor: afterwards off[v] is
	// the END of v's segment, i.e. the start of v+1's, so one shift
	// restores the offsets.
	edges := make([]Edge, len(log))
	for i := range log {
		v := log[i].From
		edges[off[v]] = log[i]
		off[v]++
	}
	copy(off[1:], off[:b.n])
	off[0] = 0
	return &Graph{off: off, edges: edges}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.off) - 1 }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Out returns the outgoing edges of node v in the order they were added.
// The returned slice must not be modified.
func (g *Graph) Out(v int) []Edge { return g.edges[g.off[v]:g.off[v+1]] }

// DFS colours shared by the cycle searches.
const (
	white uint8 = iota // not reached
	grey               // on the current DFS path
	black              // finished: no cycle through it
)

// FindCycle returns the edges of some directed cycle, or nil if the graph
// is acyclic. The cycle returned is simple: each node appears at most once.
// It uses an iterative colouring DFS so that arbitrarily deep graphs do not
// overflow the goroutine stack; the grey path IS the DFS stack, so a found
// cycle is read off the frames and nothing is kept per node but a colour.
//
//mtc:hotpath — one colour array and one stack per search; no ctx: bounded by V+E
func (g *Graph) FindCycle() []Edge {
	n := g.Len()
	color := make([]uint8, n)
	// Frame: node v and how many of its out-edges have been taken, so the
	// edge a frame descended through is Out(v)[next-1].
	type frame struct{ v, next int32 }
	stack := make([]frame, 0, 64)
	for root := 0; root < n; root++ {
		if color[root] != white {
			continue
		}
		stack = append(stack[:0], frame{v: int32(root)})
		color[root] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			out := g.Out(int(f.v))
			if int(f.next) == len(out) {
				color[f.v] = black
				stack = stack[:len(stack)-1]
				continue
			}
			e := out[f.next]
			f.next++
			switch color[e.To] {
			case white:
				color[e.To] = grey
				stack = append(stack, frame{v: int32(e.To)})
			case grey:
				// Back edge into the path: the cycle is the edge each frame
				// from e.To's upwards descended through, e last.
				k := len(stack) - 1
				for int(stack[k].v) != e.To {
					k--
				}
				cycle := make([]Edge, 0, len(stack)-k)
				for _, f := range stack[k:] {
					cycle = append(cycle, g.Out(int(f.v))[f.next-1])
				}
				return cycle
			}
		}
	}
	return nil
}

// composedObj labels the AUX edges of the composed graph.
const composedObj = "(;RW)"

// FindComposedCycle searches G′ = (E∖RW) ; RW? — every non-RW edge, plus
// one AUX edge u → t for each non-RW edge u → v followed by an RW edge
// v → t: the graph whose acyclicity is snapshot isolation (Definition 6)
// — without building it. Node u's out list in G′ is generated on the fly
// in the order an eager construction would have appended it: each non-RW
// edge e of u in turn, followed by the compositions of e with the RW
// out-edges of e.To. It returns the cycle twice, nil when G′ is acyclic:
// as found, with each composition one AUX edge labelled "(;RW)", and as
// a witness of plain dependency edges, each AUX edge replaced by the
// base ; RW pair it composes. The DFS takes the first edge to a node in
// list order, so that pair is the first one composing to the AUX edge.
//
//mtc:hotpath — one colour array and one stack per search; no ctx: bounded by V + E + the compositions it steps over
func (g *Graph) FindComposedCycle() (cycle, witness []Edge) {
	n := g.Len()
	color := make([]uint8, n)
	// Frame: node v, the base edge Out(v)[i] being expanded, and j, how
	// far into Out(base.To) the RW scan has got; j < 0 until the base edge
	// itself has been taken. The edge a frame descended through is the
	// base edge when j == 0, else base composed with Out(base.To)[j-1].
	type frame struct{ v, i, j int32 }
	stack := make([]frame, 0, 64)
	for root := 0; root < n; root++ {
		if color[root] != white {
			continue
		}
		stack = append(stack[:0], frame{v: int32(root), j: -1})
		color[root] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			out := g.Out(int(f.v))
			if int(f.i) == len(out) {
				color[f.v] = black
				stack = stack[:len(stack)-1]
				continue
			}
			base := out[f.i]
			to := base.To
			switch {
			case base.Kind == RW:
				f.i++
				continue
			case f.j < 0:
				f.j = 0
			default:
				rws := g.Out(base.To)
				for int(f.j) < len(rws) && rws[f.j].Kind != RW {
					f.j++
				}
				if int(f.j) == len(rws) {
					f.i, f.j = f.i+1, -1
					continue
				}
				to = rws[f.j].To
				f.j++
			}
			switch color[to] {
			case white:
				color[to] = grey
				stack = append(stack, frame{v: int32(to), j: -1})
			case grey:
				k := len(stack) - 1
				for int(stack[k].v) != to {
					k--
				}
				for _, f := range stack[k:] {
					base := g.Out(int(f.v))[f.i]
					if f.j == 0 {
						cycle = append(cycle, base)
						witness = append(witness, base)
						continue
					}
					rw := g.Out(base.To)[f.j-1]
					cycle = append(cycle, Edge{From: base.From, To: rw.To, Kind: AUX, Obj: composedObj})
					witness = append(witness, base, rw)
				}
				return cycle, witness
			}
		}
	}
	return nil, nil
}

// TopoSort returns a topological order of the nodes and true, or nil and
// false if the graph is cyclic. It is Kahn's algorithm in O(n+m) — the
// order itself is the FIFO queue, so nothing recurses and a node appears
// once every edge into it has been counted off.
func (g *Graph) TopoSort() ([]int, bool) {
	n := g.Len()
	indeg := make([]int32, n)
	for i := range g.edges {
		indeg[g.edges[i].To]++
	}
	order := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, e := range g.Out(order[head]) {
			if indeg[e.To]--; indeg[e.To] == 0 {
				order = append(order, e.To)
			}
		}
	}
	if len(order) != n {
		return nil, false
	}
	return order, true
}

// Acyclic reports whether the graph has no directed cycle.
func (g *Graph) Acyclic() bool {
	_, ok := g.TopoSort()
	return ok
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
	if cap(buf) >= g.Len() {
		seen = buf[:g.Len()]
		for i := range seen {
			seen[i] = false
		}
	} else {
		seen = make([]bool, g.Len())
	}
	seen[from] = true
	queue := make([]int, 1, 16)
	queue[0] = from
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, e := range g.Out(v) {
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
