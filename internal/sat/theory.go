package sat

import (
	"context"

	"mtc/internal/graph"
)

// theory maintains the active edges under push/pop of decision levels and
// checks a cycle condition incrementally. With compose it checks
// acyclicity of (base ; rw?) — the snapshot isolation condition of
// Definition 6 — over a composed graph kept up to date under push/pop: a
// new base edge (a,b) contributes the composed edges (a,b) and (a,c) for
// every active rw edge (b,c); a new rw edge (b,c) contributes (a,c) for
// every active base edge (a,b). Without compose every edge is a base edge
// and no rw edge exists, so the composed graph is the active graph and
// the check is plain acyclicity (the serializability condition).
//
// The first Check after the level-0 (known) push Kahn-scans the whole
// composed graph. Because the composed graph was acyclic before every
// later push, any new cycle must pass through a newly composed edge, so
// later Checks only search from those.
type theory struct {
	n       int
	compose bool
	baseIn  [][]tEdge // incoming base edges per node (compose only)
	rwOut   [][]tEdge // outgoing rw edges per node (compose only)
	comp    [][]cEdge // composed adjacency
	marks   []mark
	full    bool // next Check scans the whole graph (level-0 push)
	// base caches the reachability closure of the level-0 composed graph
	// (composed edges whose constituents are all known edges), built
	// lazily on the first targeted search: most conflict paths run through
	// the known graph, so an O(1) bitset probe answers them with the
	// minimal conflict set {0} and skips the DFS over the whole active
	// graph. Pop never removes level 0, so the cache survives the search;
	// a re-push of level 0 invalidates it. The build polls ctx (the
	// solver's), so cancellation interrupts even the O(n·m/64) closure
	// pass; the search then falls back to plain DFS until the solver's own
	// poll unwinds it.
	ctx       context.Context
	base      *graph.Closure
	baseBuilt bool
	// Epoch-stamped DFS scratch, reused across Checks to avoid an O(n)
	// allocation per searched edge.
	epoch      int
	seen       []int
	parentEdge []cEdge
	parentNode []int32
	stack      []int32
}

type tEdge struct {
	from, to, level int32
}

// cEdge is a composed edge: base, or base followed by one rw hop. lvl2 is
// -1 for pure base edges.
type cEdge struct {
	to         int32
	lvl1, lvl2 int32
}

// mark records everything a push appended, for Pop.
type mark struct {
	level    int
	baseIns  []int32   // nodes whose baseIn grew, in order
	rwOuts   []int32   // nodes whose rwOut grew, in order
	newEdges []newComp // the composed edges added, in order (Pop, Check)
}

type newComp struct {
	from int32
	e    cEdge
}

// newTheory carries the solver's context into the theory so the lazily
// built level-0 closure stays cancellable.
func newTheory(ctx context.Context, n int, compose bool) *theory {
	t := &theory{
		n:          n,
		compose:    compose,
		ctx:        ctx,
		comp:       make([][]cEdge, n),
		seen:       make([]int, n),
		parentEdge: make([]cEdge, n),
		parentNode: make([]int32, n),
	}
	if compose {
		t.baseIn = make([][]tEdge, n)
		t.rwOut = make([][]tEdge, n)
	}
	return t
}

func (t *theory) addComp(m *mark, from int32, e cEdge) {
	t.comp[from] = append(t.comp[from], e)
	m.newEdges = append(m.newEdges, newComp{from: from, e: e})
}

// Push activates edges at the given decision level; level 0 holds the
// known edges, constraint i is decided at level i+1.
func (t *theory) Push(level int, edges []Edge) {
	m := mark{level: level, newEdges: make([]newComp, 0, len(edges))}
	lvl := int32(level)
	for _, e := range edges {
		from, to := int32(e.From), int32(e.To)
		if !t.compose {
			t.addComp(&m, from, cEdge{to: to, lvl1: lvl, lvl2: -1})
			continue
		}
		te := tEdge{from: from, to: to, level: lvl}
		if e.Kind == RW {
			t.rwOut[from] = append(t.rwOut[from], te)
			m.rwOuts = append(m.rwOuts, from)
			// Compose with every active base edge ending at e.From.
			for _, b := range t.baseIn[from] {
				t.addComp(&m, b.from, cEdge{to: to, lvl1: b.level, lvl2: lvl})
			}
			continue
		}
		t.baseIn[to] = append(t.baseIn[to], te)
		m.baseIns = append(m.baseIns, to)
		// Identity part of rw?.
		t.addComp(&m, from, cEdge{to: to, lvl1: lvl, lvl2: -1})
		// Compose with every active rw edge leaving e.To.
		for _, r := range t.rwOut[to] {
			t.addComp(&m, from, cEdge{to: r.to, lvl1: lvl, lvl2: r.level})
		}
	}
	t.marks = append(t.marks, m)
	if level == 0 {
		t.full = true
		t.base, t.baseBuilt = nil, false
	}
}

// Pop deactivates every level > keep.
func (t *theory) Pop(keep int) {
	for len(t.marks) > 0 && t.marks[len(t.marks)-1].level > keep {
		m := t.marks[len(t.marks)-1]
		t.marks = t.marks[:len(t.marks)-1]
		for i := len(m.newEdges) - 1; i >= 0; i-- {
			v := m.newEdges[i].from
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

// Check reports whether the composed graph is acyclic; when it is not, it
// returns the set of decision levels whose edges lie on a cycle (level 0
// may be included). After the level-0 push it runs a full Kahn scan and
// blames {0}; afterwards it searches from the newest push's edges.
func (t *theory) Check() ([]int, bool) {
	if t.full {
		t.full = false
		if t.kahnAcyclic() {
			return nil, true
		}
		return []int{0}, false
	}
	if len(t.marks) == 0 {
		return nil, true
	}
	m := &t.marks[len(t.marks)-1]
	for _, nc := range m.newEdges {
		if lvls, found := t.findPath(nc.e.to, nc.from); found {
			// Path e.to ~> from plus the edge itself closes a cycle.
			return mergeLevels(lvls, levelsOfCEdge(nc.e)), false
		}
	}
	return nil, true
}

// kahnAcyclic runs an O(n+m) topological check of the composed graph.
func (t *theory) kahnAcyclic() bool {
	indeg := make([]int32, t.n)
	for _, out := range t.comp {
		for _, e := range out {
			indeg[e.to]++
		}
	}
	queue := make([]int32, 0, t.n)
	for v := range indeg {
		if indeg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, e := range t.comp[v] {
			indeg[e.to]--
			if indeg[e.to] == 0 {
				queue = append(queue, e.to)
			}
		}
	}
	return seen == t.n
}

// findPath DFSes the composed graph from src to dst and, when found,
// returns the set of edge levels on the path. A path through the level-0
// composed edges alone is answered from the cached closure without
// searching: the conflict set is then exactly {0}, the strongest
// (smallest) clause a path can yield.
func (t *theory) findPath(src, dst int32) ([]int, bool) {
	if src == dst {
		return nil, true
	}
	if !t.baseBuilt {
		// No cache when the level-0 graph is cyclic (the initial full
		// Check already failed) or when ctx fired mid-build; it counts as
		// built either way, so a canceled solve does not retry the
		// closure on every search.
		if c, ok, err := graph.NewClosure(t.ctx, t.levelZero().Build()); err == nil && ok {
			t.base = c
		}
		t.baseBuilt = true
	}
	if t.base != nil && t.base.Reach(int(src), int(dst)) {
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

// levelZero collects the composed edges whose constituents are all
// level-0 (known) edges.
func (t *theory) levelZero() *graph.Builder {
	b := graph.NewBuilder(t.n, 0)
	for v, out := range t.comp {
		for _, e := range out {
			if e.lvl1 == 0 && e.lvl2 <= 0 {
				b.AddArc(graph.Arc{From: int32(v), To: e.to, Obj: graph.NoObj})
			}
		}
	}
	return b
}

func levelsOfCEdge(e cEdge) []int {
	if e.lvl2 < 0 {
		return []int{int(e.lvl1)}
	}
	return mergeLevels([]int{int(e.lvl1)}, []int{int(e.lvl2)})
}
