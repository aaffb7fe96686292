// Package graph provides a compact directed multigraph with typed edges,
// cycle detection, topological sorting, and reachability. It is the
// shared substrate for every isolation checker in this repository: nodes
// are transaction indices and edges carry the dependency kind (SO, RT,
// WR, WW, RW, ...) plus the object they concern, so that detected cycles
// can be reported back as human-readable counterexamples.
//
// There is one static form, one online form and one closure. A Graph is
// collected edge by edge in a Builder and immutable after Build (one arc
// arena in CSR form); every static search — the one cycle DFS (FindCycle
// is FindComposedCycle without composition), TopoSort (the one Kahn loop;
// Acyclic is its verdict), NewClosure and ReachRows — reads that form, so
// a caller with edges in any other shape adds them to a Builder rather
// than to lists of its own. The arena holds
// Arcs: 16 bytes and no pointer, so the garbage collector never scans it.
// An arc's Obj is an id into the name table the graph carries — the
// history index's KeyIDs when core derives the graph, names interned by
// AddEdge otherwise — and Edge, which names its object, is the reporting
// form: a cycle becomes []Edge only when a search returns it. The graph
// that grows while it is searched is Online, whose edges are arcs linked
// into per-node out and in lists: both iterate in insertion order, Out is
// an iterator, and Reload refills an existing graph instead of building a
// new one. Closure is the cached all-pairs reachability of an acyclic
// Graph, ReachRows its row-at-a-time counterpart. Every search here runs
// on the caller's goroutine: the one concurrency knob of the checkers is
// sharding, above the engines.
//
// Beside them sit the containers the checkers share: Bitset, UnionFind
// and Slab. A Slab hands out records from chunks that never
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

// Arc is an edge as a Graph stores it: 16 bytes and no pointer. Obj is
// the index of the edge's object in the graph's name table, NoObj for
// none.
type Arc struct {
	From, To int32
	Obj      int32
	Kind     EdgeKind
}

// NoObj is the Obj of an arc that concerns no object (SO, RT, AUX).
const NoObj int32 = -1

// Graph is an immutable directed multigraph over nodes 0..n-1 in
// compressed sparse row form: one arc arena grouped by source node and
// an offset table into it, so a graph costs two allocations however
// many nodes it has. Parallel edges of different kinds are permitted and
// preserved (they matter for counterexample reporting). A Graph is made
// by Builder.Build and never changes afterwards, so it may be shared
// between goroutines without synchronization.
type Graph struct {
	off   []int32 // node v's out-arcs are arcs[off[v]:off[v+1]]
	arcs  []Arc
	names []string // the name table: arc.Obj indexes it
}

// Builder collects the arcs of a Graph. Arcs may arrive in any order;
// Build groups them by source node, keeping each node's arcs in arrival
// order.
type Builder struct {
	n      int
	log    []Arc            // every arc added so far, in arrival order
	sorted bool             // log is non-decreasing in From
	names  []string         // the name table, without spare capacity while it may be lent
	ids    map[string]int32 // names inverted; built by the first AddEdge that names an object
}

// NewBuilder returns a builder for a graph of n nodes with an empty name
// table, for callers that add Edges. edgeHint sizes the arc log; it is a
// capacity, not a limit.
func NewBuilder(n, edgeHint int) *Builder { return NewBuilderNames(n, edgeHint, nil) }

// NewBuilderNames returns a builder whose name table is names: an arc
// added with Obj k concerns names[k]. The table is shared, not copied;
// the builder never writes it.
func NewBuilderNames(n, edgeHint int, names []string) *Builder {
	return &Builder{n: n, log: make([]Arc, 0, edgeHint), sorted: true, names: names[:len(names):len(names)]}
}

// AddArc records a. Self-loops are permitted and will be reported as
// cycles of length one. Node indices must be in range, and Obj NoObj or
// an index into the name table.
//
//mtc:hotpath — one store into the log, which NewBuilder sized
func (b *Builder) AddArc(a Arc) {
	if a.From < 0 || int(a.From) >= b.n || a.To < 0 || int(a.To) >= b.n || a.Obj < NoObj || int(a.Obj) >= len(b.names) {
		panic(fmt.Sprintf("graph: arc %+v out of range [0,%d) or past %d names", a, b.n, len(b.names))) //mtc:alloc-ok the panic of a broken invariant
	}
	if m := len(b.log); m > 0 && b.log[m-1].From > a.From {
		b.sorted = false
	}
	b.log = append(b.log, a)
}

// AddEdge records e, interning its object into the name table (a name
// the table already holds keeps its id). Self-loops are permitted and
// will be reported as cycles of length one. Node indices must be in
// range.
func (b *Builder) AddEdge(e Edge) {
	if e.From < 0 || e.From >= b.n || e.To < 0 || e.To >= b.n {
		panic(fmt.Sprintf("graph: edge %v out of range [0,%d)", e, b.n))
	}
	b.AddArc(Arc{From: int32(e.From), To: int32(e.To), Obj: b.intern(e.Obj), Kind: e.Kind})
}

// intern returns obj's id in the name table, appending it on first
// sight; the empty name is NoObj. A shared table has no spare capacity,
// so the first append copies it.
func (b *Builder) intern(obj string) int32 {
	if obj == "" {
		return NoObj
	}
	if b.ids == nil {
		b.ids = make(map[string]int32, len(b.names))
		for i, name := range b.names {
			b.ids[name] = int32(i)
		}
	}
	id, ok := b.ids[obj]
	if !ok {
		id = int32(len(b.names))
		b.names = append(b.names, obj)
		b.ids[obj] = id
	}
	return id
}

// Build returns the graph of the arcs added so far. It is a stable
// counting sort of the log by From: node v's out list holds v's arcs in
// the order they were added. A log that already arrived in ascending
// From order becomes the arena as it is, without a copy.
//
//mtc:hotpath — two allocations per graph (offsets, arena), none per node or edge
func (b *Builder) Build() *Graph {
	log := b.log
	names := b.names[:len(b.names):len(b.names)]
	off := make([]int32, b.n+1)
	for i := range log {
		off[log[i].From+1]++
	}
	for v := 0; v < b.n; v++ {
		off[v+1] += off[v]
	}
	if b.sorted {
		return &Graph{off: off, arcs: log[:len(log):len(log)], names: names}
	}
	// Scatter with off[v] as node v's write cursor: afterwards off[v] is
	// the END of v's segment, i.e. the start of v+1's, so one shift
	// restores the offsets.
	arcs := make([]Arc, len(log))
	for i := range log {
		v := log[i].From
		arcs[off[v]] = log[i]
		off[v]++
	}
	copy(off[1:], off[:b.n])
	off[0] = 0
	return &Graph{off: off, arcs: arcs, names: names}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.off) - 1 }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.arcs) }

// Out returns the outgoing arcs of node v in the order they were added.
// The returned slice must not be modified.
func (g *Graph) Out(v int) []Arc { return g.arcs[g.off[v]:g.off[v+1]] }

// Edge renders a as the reporting form, its object named through the
// graph's name table.
func (g *Graph) Edge(a Arc) Edge {
	e := Edge{From: int(a.From), To: int(a.To), Kind: a.Kind}
	if a.Obj != NoObj {
		e.Obj = g.names[a.Obj]
	}
	return e
}

// Subgraph returns g restricted to the edge kinds in the mask (bit k set
// keeps EdgeKind k), every out list in g's order, over the same name
// table. The arcs are counted first and then arrive in ascending source
// order, so the builder's log is cut once and becomes the subgraph's
// arena without a copy.
//
//mtc:hotpath — rung filter over every arc of a shared graph
func (g *Graph) Subgraph(kinds uint) *Graph {
	m := 0
	for _, a := range g.arcs {
		m += int(kinds >> a.Kind & 1)
	}
	b := NewBuilderNames(g.Len(), m, g.names)
	for _, a := range g.arcs {
		if kinds>>a.Kind&1 != 0 {
			b.AddArc(a)
		}
	}
	return b.Build()
}

// DFS colours shared by the cycle searches.
const (
	white uint8 = iota // not reached
	grey               // on the current DFS path
	black              // finished: no cycle through it
)

// FindCycle returns the edges of some directed cycle, or nil if the graph
// is acyclic. The cycle returned is simple: each node appears at most once.
// It is the composed search with every edge a base edge.
func (g *Graph) FindCycle() []Edge {
	cycle, _ := g.findCycle(false)
	return cycle
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
func (g *Graph) FindComposedCycle() (cycle, witness []Edge) { return g.findCycle(true) }

// findCycle is the one cycle search: an iterative colouring DFS, so that
// arbitrarily deep graphs do not overflow the goroutine stack. The grey
// path IS the DFS stack, so a found cycle is read off the frames and
// nothing is kept per node but a colour; its edges are rendered through
// the name table only then. Without compose every edge, RW included, is
// a base edge, and the witness is nil.
//
//mtc:hotpath — one colour array and one stack per search; no ctx: bounded by V + E + the compositions it steps over
func (g *Graph) findCycle(compose bool) (cycle, witness []Edge) {
	n := g.Len()
	color := make([]uint8, n)
	// Frame: node v, how many of its out-edges have been taken, and how
	// far the RW scan of the last one's target has got (j < 0: none open).
	// The edge a frame descended through is base = Out(v)[i-1] when
	// j <= 0, else base composed with Out(base.To)[j-1].
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
			// The next edge to an unfinished node, as a finished one closes
			// no cycle; a composed base edge is taken anyway, to scan its RWs.
			to := int32(-1)
			if compose && f.j >= 0 {
				rws := g.Out(int(out[f.i-1].To))
				for to < 0 && int(f.j) < len(rws) {
					if e := rws[f.j]; e.Kind == RW && color[e.To] != black {
						to = e.To
					}
					f.j++
				}
				if to < 0 {
					f.j = -1
					continue
				}
			} else {
				for to < 0 && int(f.i) < len(out) {
					base := out[f.i]
					f.i++
					switch {
					case !compose:
						if color[base.To] != black {
							to = base.To
						}
					case base.Kind != RW:
						to, f.j = base.To, 0
					}
				}
				if to < 0 {
					color[f.v] = black
					stack = stack[:len(stack)-1]
					continue
				}
			}
			switch color[to] {
			case white:
				color[to] = grey
				stack = append(stack, frame{v: to, j: -1})
			case grey:
				// Back edge into the path: the cycle is the edge each frame
				// from to's upwards descended through, the last one last.
				k := len(stack) - 1
				for stack[k].v != to {
					k--
				}
				cycle = make([]Edge, 0, len(stack)-k)
				for _, f := range stack[k:] {
					base := g.Edge(g.Out(int(f.v))[f.i-1])
					if f.j <= 0 {
						cycle = append(cycle, base)
						if compose {
							witness = append(witness, base)
						}
						continue
					}
					rw := g.Edge(g.Out(base.To)[f.j-1])
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
	for i := range g.arcs {
		indeg[g.arcs[i].To]++
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
				order = append(order, int(e.To))
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
