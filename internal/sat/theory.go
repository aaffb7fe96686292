package sat

import (
	"context"

	"mtc/internal/graph"
)

// acyclicTheory maintains a directed graph under push/pop of edge levels
// and checks plain acyclicity incrementally: because the graph was acyclic
// before the newest push, any new cycle must pass through a newly added
// edge, so Check only searches from those.
type acyclicTheory struct {
	n       int
	out     [][]aEdge
	touched [][]int  // per level: from-nodes in append order
	pushed  [][]Edge // per level: the edges, for targeted checking
	levels  []int    // stack of pushed level numbers
	full    bool     // next Check scans the whole graph (first push)
	// base caches the reachability closure of the level-0 (known) edges,
	// built lazily on the first targeted search: most conflict paths run
	// through the known graph, so an O(1) bitset probe answers them with
	// the minimal conflict set {0} and skips the DFS over the whole active
	// graph. Pop never removes level 0, so the cache survives the search;
	// a re-push of level 0 invalidates it. The build polls ctx (the
	// solver's), so cancellation interrupts even the O(n·m/64) closure
	// pass; the search then falls back to plain DFS until the solver's
	// own poll unwinds it.
	ctx       context.Context
	base      *graph.Closure
	baseBuilt bool
	// Epoch-stamped DFS scratch.
	epoch    int
	seen     []int
	parent   []aEdge
	parentOf []int
	stack    []int
}

// levelZeroClosure is the closure of the level-0 edges a theory collected
// in b; nil when that graph is cyclic (the search then never consults the
// cache — the initial full Check already failed) or when ctx fired
// mid-build (the caller marks the cache built either way, so a canceled
// solve does not retry the closure on every search).
func levelZeroClosure(ctx context.Context, b *graph.Builder) *graph.Closure {
	c, ok, err := graph.NewClosure(ctx, b.Build(), 1)
	if err != nil || !ok {
		return nil
	}
	return c
}

// levelZero collects the edges tagged level 0.
func (t *acyclicTheory) levelZero() *graph.Builder {
	b := graph.NewBuilder(t.n, 0)
	for v, out := range t.out {
		for _, e := range out {
			if e.level == 0 {
				b.AddEdge(graph.Edge{From: v, To: e.to})
			}
		}
	}
	return b
}

type aEdge struct {
	to    int
	level int
}

// newAcyclicTheory carries the solver's context into the theory so the
// lazily built level-0 closure stays cancellable.
func newAcyclicTheory(ctx context.Context, n int) Theory {
	return &acyclicTheory{
		n:        n,
		ctx:      ctx,
		out:      make([][]aEdge, n),
		seen:     make([]int, n),
		parent:   make([]aEdge, n),
		parentOf: make([]int, n),
	}
}

func (t *acyclicTheory) Push(level int, edges []Edge) {
	var touched []int
	for _, e := range edges {
		t.out[e.From] = append(t.out[e.From], aEdge{to: e.To, level: level})
		touched = append(touched, e.From)
	}
	t.touched = append(t.touched, touched)
	t.pushed = append(t.pushed, edges)
	t.levels = append(t.levels, level)
	if level == 0 {
		t.full = true
		t.base, t.baseBuilt = nil, false
	}
}

func (t *acyclicTheory) Pop(keep int) {
	for len(t.levels) > 0 && t.levels[len(t.levels)-1] > keep {
		idx := len(t.levels) - 1
		touched := t.touched[idx]
		for i := len(touched) - 1; i >= 0; i-- {
			from := touched[i]
			t.out[from] = t.out[from][:len(t.out[from])-1]
		}
		t.touched = t.touched[:idx]
		t.pushed = t.pushed[:idx]
		t.levels = t.levels[:idx]
	}
}

// Check verifies acyclicity. After the initial push it runs a full Kahn
// scan; afterwards it only DFSes from the targets of newly pushed edges.
func (t *acyclicTheory) Check() ([]int, bool) {
	if t.full {
		t.full = false
		if t.kahnAcyclic() {
			return nil, true
		}
		return []int{0}, false
	}
	if len(t.pushed) == 0 {
		return nil, true
	}
	for _, e := range t.pushed[len(t.pushed)-1] {
		if lvls, found := t.findPath(e.To, e.From); found {
			// Path e.To ~> e.From plus edge e closes a cycle.
			lvls = mergeLevels(lvls, []int{t.levels[len(t.levels)-1]})
			return lvls, false
		}
	}
	return nil, true
}

// kahnAcyclic runs an O(n+m) topological check.
func (t *acyclicTheory) kahnAcyclic() bool {
	indeg := make([]int, t.n)
	for u := 0; u < t.n; u++ {
		for _, e := range t.out[u] {
			indeg[e.to]++
		}
	}
	queue := make([]int, 0, t.n)
	for v := 0; v < t.n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, e := range t.out[v] {
			indeg[e.to]--
			if indeg[e.to] == 0 {
				queue = append(queue, e.to)
			}
		}
	}
	return seen == t.n
}

// findPath DFSes from src to dst and, when found, returns the set of edge
// levels on the path. A path through the known edges alone is answered
// from the cached level-0 closure without searching: the conflict set is
// then exactly {0}, the strongest (smallest) clause a path can yield.
func (t *acyclicTheory) findPath(src, dst int) ([]int, bool) {
	if src == dst {
		return nil, true
	}
	if !t.baseBuilt {
		t.base = levelZeroClosure(t.ctx, t.levelZero())
		t.baseBuilt = true
	}
	if t.base != nil && t.base.Reach(src, dst) {
		return []int{0}, true
	}
	t.epoch++
	t.seen[src] = t.epoch
	stack := t.stack[:0]
	stack = append(stack, src)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range t.out[v] {
			if t.seen[e.to] == t.epoch {
				continue
			}
			t.seen[e.to] = t.epoch
			t.parent[e.to] = e
			t.parentOf[e.to] = v
			if e.to == dst {
				var lvls []int
				for x := dst; x != src; x = t.parentOf[x] {
					lvls = mergeLevels(lvls, []int{t.parent[x].level})
				}
				t.stack = stack
				return lvls, true
			}
			stack = append(stack, e.to)
		}
	}
	t.stack = stack
	return nil, false
}

// siTheory checks acyclicity of (base ; rw?) over the active edges: the
// snapshot isolation condition of Definition 6. It maintains the composed
// graph incrementally under push/pop: a new base edge (a,b) contributes
// the composed edges (a,b) and (a,c) for every active rw edge (b,c); a
// new rw edge (b,c) contributes (a,c) for every active base edge (a,b).
// Because the composed graph was acyclic before each push, Check only
// searches from the newly added composed edges.
type siTheory struct {
	n      int
	baseIn [][]tEdge // incoming base edges per node
	rwOut  [][]tEdge // outgoing rw edges per node
	comp   [][]cEdge // composed adjacency
	marks  []siMark
	// base caches the closure of the level-0 composed graph (see
	// acyclicTheory.base): composed edges whose constituents are all known
	// edges. A probe answering a search yields the conflict set {0}. The
	// build polls ctx (the solver's) so it stays cancellable.
	ctx       context.Context
	base      *graph.Closure
	baseBuilt bool
	// Epoch-stamped DFS scratch, reused across Checks to avoid an O(n)
	// allocation per searched edge.
	epoch      int
	seen       []int
	parentEdge []cEdge
	parentNode []int
	stack      []int
}

type tEdge struct {
	from, to, level int
}

// cEdge is a composed edge: base, or base followed by one rw hop. lvl2 is
// -1 for pure base edges.
type cEdge struct {
	to         int
	lvl1, lvl2 int
}

// siMark records everything a push appended, for Pop.
type siMark struct {
	level    int
	baseIns  []int     // nodes whose baseIn grew, in order
	rwOuts   []int     // nodes whose rwOut grew, in order
	compAt   []int     // nodes whose comp grew, in order
	newEdges []newComp // the composed edges added (for targeted Check)
}

type newComp struct {
	from int
	e    cEdge
}

// newSITheory carries the solver's context into the theory so the lazily
// built level-0 composed closure stays cancellable.
func newSITheory(ctx context.Context, n int) Theory {
	return &siTheory{
		n:          n,
		ctx:        ctx,
		baseIn:     make([][]tEdge, n),
		rwOut:      make([][]tEdge, n),
		comp:       make([][]cEdge, n),
		seen:       make([]int, n),
		parentEdge: make([]cEdge, n),
		parentNode: make([]int, n),
	}
}

func (t *siTheory) addComp(m *siMark, from int, e cEdge) {
	t.comp[from] = append(t.comp[from], e)
	m.compAt = append(m.compAt, from)
	m.newEdges = append(m.newEdges, newComp{from: from, e: e})
}

func (t *siTheory) Push(level int, edges []Edge) {
	m := siMark{level: level}
	for _, e := range edges {
		if e.Kind == RW {
			te := tEdge{from: e.From, to: e.To, level: level}
			t.rwOut[e.From] = append(t.rwOut[e.From], te)
			m.rwOuts = append(m.rwOuts, e.From)
			// Compose with every active base edge ending at e.From.
			for _, b := range t.baseIn[e.From] {
				t.addComp(&m, b.from, cEdge{to: e.To, lvl1: b.level, lvl2: level})
			}
			continue
		}
		te := tEdge{from: e.From, to: e.To, level: level}
		t.baseIn[e.To] = append(t.baseIn[e.To], te)
		m.baseIns = append(m.baseIns, e.To)
		// Identity part of rw?.
		t.addComp(&m, e.From, cEdge{to: e.To, lvl1: level, lvl2: -1})
		// Compose with every active rw edge leaving e.To.
		for _, r := range t.rwOut[e.To] {
			t.addComp(&m, e.From, cEdge{to: r.to, lvl1: level, lvl2: r.level})
		}
	}
	t.marks = append(t.marks, m)
	if level == 0 {
		t.base, t.baseBuilt = nil, false
	}
}

func (t *siTheory) Pop(keep int) {
	for len(t.marks) > 0 && t.marks[len(t.marks)-1].level > keep {
		m := t.marks[len(t.marks)-1]
		t.marks = t.marks[:len(t.marks)-1]
		for i := len(m.compAt) - 1; i >= 0; i-- {
			v := m.compAt[i]
			t.comp[v] = t.comp[v][:len(t.comp[v])-1]
		}
		for i := len(m.baseIns) - 1; i >= 0; i-- {
			v := m.baseIns[i]
			t.baseIn[v] = t.baseIn[v][:len(t.baseIn[v])-1]
		}
		for i := len(m.rwOuts) - 1; i >= 0; i-- {
			v := m.rwOuts[i]
			t.rwOut[v] = t.rwOut[v][:len(t.rwOut[v])-1]
		}
	}
}

// Check searches for a composed cycle through the newest push's edges.
func (t *siTheory) Check() ([]int, bool) {
	if len(t.marks) == 0 {
		return nil, true
	}
	m := &t.marks[len(t.marks)-1]
	for _, nc := range m.newEdges {
		if lvls, found := t.findCompPath(nc.e.to, nc.from); found {
			return mergeLevels(lvls, levelsOfCEdge(nc.e)), false
		}
	}
	return nil, true
}

// findCompPath DFSes the composed graph from src to dst, returning the
// levels of the edges on the path. Paths running entirely through the
// level-0 composed edges are answered from the cached closure with the
// minimal conflict set {0}.
func (t *siTheory) findCompPath(src, dst int) ([]int, bool) {
	if src == dst {
		return nil, true
	}
	if !t.baseBuilt {
		t.base = levelZeroClosure(t.ctx, t.levelZeroComp())
		t.baseBuilt = true
	}
	if t.base != nil && t.base.Reach(src, dst) {
		return []int{0}, true
	}
	t.epoch++
	t.seen[src] = t.epoch
	stack := t.stack[:0]
	stack = append(stack, src)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range t.comp[v] {
			if t.seen[e.to] == t.epoch {
				continue
			}
			t.seen[e.to] = t.epoch
			t.parentEdge[e.to] = e
			t.parentNode[e.to] = v
			if e.to == dst {
				var lvls []int
				for x := dst; x != src; x = t.parentNode[x] {
					lvls = mergeLevels(lvls, levelsOfCEdge(t.parentEdge[x]))
				}
				t.stack = stack
				return lvls, true
			}
			stack = append(stack, e.to)
		}
	}
	t.stack = stack
	return nil, false
}

// levelZeroComp collects the composed edges whose constituents are all
// level-0 (known) edges.
func (t *siTheory) levelZeroComp() *graph.Builder {
	b := graph.NewBuilder(t.n, 0)
	for v, out := range t.comp {
		for _, e := range out {
			if e.lvl1 == 0 && e.lvl2 <= 0 {
				b.AddEdge(graph.Edge{From: v, To: e.to})
			}
		}
	}
	return b
}

func levelsOfCEdge(e cEdge) []int {
	if e.lvl2 < 0 {
		return []int{e.lvl1}
	}
	return mergeLevels([]int{e.lvl1}, []int{e.lvl2})
}
