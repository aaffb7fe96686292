package graph

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
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
// Every edge lives in one chunked arena as an arc: the pointer-free Arc
// plus the id of the next arc on its source's out list and on its
// target's in list, 24 bytes. A node holds only the head and tail of its
// two lists, so inserting an edge is one store into the arena and two
// link writes, and both lists iterate in insertion order. Chunks never
// move and are never copied; Reload and Load refill the same chunks, so
// a graph that is reloaded at a steady size stops allocating.
//
// Online is the substrate of core.Incremental; it is not safe for
// concurrent use.
type Online struct {
	ord  []int       // node -> order index
	adj  []adjacency // node -> the ends of its two lists
	arcs Slab[arc]

	// Search scratch, reused across insertions.
	mark   []int
	stamp  int
	parent []int32 // node -> the arc the forward search reached it by
	fwd    []int
	bwd    []int
	stack  []int
	slots  []int
}

// arc is one edge and its place on two lists: the arc after it on
// a.From's out list and on a.To's in list, 0 where a list ends.
type arc struct {
	Arc
	nextOut, nextIn int32
}

// adjacency is the first and last arc of a node's out and in lists, 0
// while a list is empty.
type adjacency struct{ outHead, outTail, inHead, inTail int32 }

// NewOnline returns an empty online ordering with no nodes.
func NewOnline() *Online { return &Online{} }

// Reload replaces the graph by nodes 0..n-1 and no edges, under the
// identity order, reusing the memory the graph already owns. Load then
// refills it one edge at a time.
func (t *Online) Reload(n int) {
	t.ord = slices.Grow(t.ord[:0], n)[:n]
	for v := range t.ord {
		t.ord[v] = v
	}
	t.adj = slices.Grow(t.adj[:0], n)[:n]
	clear(t.adj)
	t.mark = slices.Grow(t.mark[:0], n)[:n]
	clear(t.mark)
	t.stamp = 0
	t.parent = slices.Grow(t.parent[:0], n)[:n]
	t.arcs.Reset()
}

// Load adds a to a graph still under the identity order of its Reload,
// where a must have From < To: that is the whole proof of acyclicity,
// which AddEdge would otherwise establish with a search, and an edge that
// breaks it panics. The adjacency lists keep the order of the calls,
// exactly as if each edge had been added to fresh nodes in turn.
//
//mtc:hotpath — per edge a compaction keeps
func (t *Online) Load(a Arc) {
	if a.From < 0 || a.From >= a.To || int(a.To) >= len(t.ord) {
		panic(fmt.Sprintf("graph: Load: edge %d -> %d does not ascend within %d nodes", a.From, a.To, len(t.ord))) //mtc:alloc-ok the panic of a broken invariant
	}
	t.push(a)
}

// Len returns the number of nodes.
func (t *Online) Len() int { return len(t.ord) }

// AddNode appends a new node at the end of the current order and returns
// its index.
func (t *Online) AddNode() int {
	id := len(t.ord)
	t.ord = Append(t.ord, id)
	t.adj = Append(t.adj, adjacency{})
	t.mark = Append(t.mark, 0)
	t.parent = Append(t.parent, 0)
	return id
}

// Out iterates the outgoing arcs of node v in insertion order, each
// with its position on the list.
func (t *Online) Out(v int) iter.Seq2[int, Arc] {
	return func(yield func(int, Arc) bool) {
		var a *arc
		i := 0
		for id := t.adj[v].outHead; id != 0; id = a.nextOut {
			a = t.arcs.At(id)
			if !yield(i, a.Arc) {
				return
			}
			i++
		}
	}
}

// Ord returns the current order index of node v.
func (t *Online) Ord(v int) int { return t.ord[v] }

// push stores a at the tail of its source's out list and its target's in
// list.
//
//mtc:hotpath — one arena store and two link writes per edge
func (t *Online) push(a Arc) {
	id, r := t.arcs.Alloc()
	*r = arc{Arc: a}
	from := &t.adj[a.From]
	if from.outTail == 0 {
		from.outHead = id
	} else {
		t.arcs.At(from.outTail).nextOut = id
	}
	from.outTail = id
	to := &t.adj[a.To] // from itself, for a self-loop
	if to.inTail == 0 {
		to.inHead = id
	} else {
		t.arcs.At(to.inTail).nextIn = id
	}
	to.inTail = id
}

// AddEdge inserts e, restoring the topological order. If the insertion
// closes a directed cycle it returns the cycle's arcs (e first, so each
// arc's To is the next arc's From and the last arc re-enters e.From);
// the ordering is then stale and the structure should only be read, not
// grown. It returns nil when the graph remains acyclic.
//
//mtc:hotpath — an edge that respects the order is push and two loads; one that inverts it searches in reused scratch
func (t *Online) AddEdge(e Arc) []Arc {
	u, v := int(e.From), int(e.To)
	t.push(e)
	if u == v {
		return []Arc{e} //mtc:alloc-ok a cycle is the terminal verdict
	}
	if t.ord[u] < t.ord[v] {
		return nil
	}
	lb, ub := t.ord[v], t.ord[u]

	// Forward search from v over nodes with ord <= ub. Any path from v to
	// u has strictly increasing order indices (the pre-insertion invariant),
	// so pruning at ub cannot miss a cycle.
	t.stamp++
	fwd := append(t.fwd[:0], v)
	t.mark[v] = t.stamp
	stack := append(t.stack[:0], v)
	var a *arc
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for id := t.adj[x].outHead; id != 0; id = a.nextOut {
			a = t.arcs.At(id)
			w := int(a.To)
			if w == u {
				// Cycle: e (u->v), then the tree path v ~> x, then a.
				cycle := []Arc{e, a.Arc} //mtc:alloc-ok a cycle is the terminal verdict
				for y := x; y != v; y = int(cycle[1].From) {
					cycle = slices.Insert(cycle, 1, t.arcs.At(t.parent[y]).Arc) //mtc:alloc-ok a cycle is the terminal verdict
				}
				return cycle
			}
			if t.ord[w] > ub || t.mark[w] == t.stamp {
				continue
			}
			t.mark[w] = t.stamp
			t.parent[w] = id
			fwd = append(fwd, w)
			stack = append(stack, w)
		}
	}

	// Backward search from u over nodes with ord >= lb. No overlap with
	// fwd is possible: a shared node would witness a v ~> u path, found
	// above.
	bwdStamp := -t.stamp
	bwd := append(t.bwd[:0], u)
	t.mark[u] = bwdStamp
	stack = append(stack, u)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for id := t.adj[x].inHead; id != 0; id = a.nextIn {
			a = t.arcs.At(id)
			w := int(a.From)
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
	byOrd := func(x, y int) int { return cmp.Compare(t.ord[x], t.ord[y]) }
	slices.SortFunc(fwd, byOrd)
	slices.SortFunc(bwd, byOrd)
	slots := t.slots[:0]
	for _, x := range bwd {
		slots = append(slots, t.ord[x])
	}
	for _, x := range fwd {
		slots = append(slots, t.ord[x])
	}
	slices.Sort(slots)
	bwd = append(bwd, fwd...)
	for i, x := range bwd {
		t.ord[x] = slots[i]
	}
	t.fwd, t.bwd, t.stack, t.slots = fwd, bwd, stack, slots
	return nil
}
