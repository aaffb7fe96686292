package graph

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refGraph is the adjacency-list multigraph Graph was before it became
// a CSR arena — one append-grown out list per node — kept here with the
// algorithms that ran over it as the reference the Builder, FindCycle
// and FindComposedCycle are held to: identical, only cheaper. Its sccs
// is the component oracle of the cycle-detection property test.
type refGraph [][]Edge

func (g refGraph) addEdge(e Edge) { g[e.From] = append(g[e.From], e) }

func (g refGraph) numEdges() (m int) {
	for _, out := range g {
		m += len(out)
	}
	return m
}

// findCycle is the colouring DFS with a per-node parent edge.
func (g refGraph) findCycle() []Edge {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]uint8, len(g))
	parent := make([]Edge, len(g))
	type frame struct{ v, next int }
	for root := range g {
		if color[root] != white {
			continue
		}
		stack := []frame{{v: root}}
		color[root] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next == len(g[f.v]) {
				color[f.v] = black
				stack = stack[:len(stack)-1]
				continue
			}
			e := g[f.v][f.next]
			f.next++
			switch color[e.To] {
			case white:
				color[e.To] = grey
				parent[e.To] = e
				stack = append(stack, frame{v: e.To})
			case grey:
				cycle := []Edge{e}
				for v := f.v; v != e.To; v = parent[v].From {
					cycle = append(cycle, parent[v])
				}
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return cycle
			}
		}
	}
	return nil
}

// sccs is the iterative Tarjan, components in reverse topological order.
func (g refGraph) sccs() [][]int {
	n := len(g)
	index, low, onStack := make([]int, n), make([]int, n), make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var (
		sccs    [][]int
		tstack  []int
		counter int
	)
	type frame struct{ v, next int }
	open := func(v int) {
		index[v], low[v] = counter, counter
		counter++
		tstack = append(tstack, v)
		onStack[v] = true
	}
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		stack := []frame{{v: root}}
		open(root)
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(g[f.v]) {
				w := g[f.v][f.next].To
				f.next++
				if index[w] == -1 {
					open(w)
					stack = append(stack, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				if p := stack[len(stack)-1].v; low[v] < low[p] {
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
	return sccs
}

// topoSort is Kahn's algorithm with a FIFO queue.
func (g refGraph) topoSort() ([]int, bool) {
	indeg := make([]int, len(g))
	for _, out := range g {
		for _, e := range out {
			indeg[e.To]++
		}
	}
	var queue, order []int
	for v := range g {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, e := range g[v] {
			if indeg[e.To]--; indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	if len(order) != len(g) {
		return nil, false
	}
	return order, true
}

// induceSI materializes G′ = (E∖RW) ; RW? with the witness map that
// expands each composed edge back into its first base ; RW pair: the
// eager construction FindComposedCycle replaced.
func (g refGraph) induceSI() (refGraph, map[[2]int][]Edge) {
	gi := make(refGraph, len(g))
	expand := make(map[[2]int][]Edge)
	for u := range g {
		for _, e := range g[u] {
			if e.Kind == RW {
				continue
			}
			gi.addEdge(e)
			for _, rw := range g[e.To] {
				if rw.Kind != RW {
					continue
				}
				ck := [2]int{u, rw.To}
				if _, dup := expand[ck]; !dup {
					expand[ck] = []Edge{e, rw}
				}
				gi.addEdge(Edge{From: u, To: rw.To, Kind: AUX, Obj: "(;RW)"})
			}
		}
	}
	return gi, expand
}

func refExpand(cycle []Edge, expand map[[2]int][]Edge) []Edge {
	var out []Edge
	for _, e := range cycle {
		if w, ok := expand[[2]int{e.From, e.To}]; ok && e.Kind == AUX {
			out = append(out, w...)
			continue
		}
		out = append(out, e)
	}
	return out
}

// randomTyped draws a multigraph over the dependency kinds (AUX is
// FindComposedCycle's output alphabet, never its input): self-loops and
// parallel edges of different kinds allowed. dag restricts it to
// forward edges under a random permutation; sorted delivers the edges
// in ascending From order, the arrival order that makes Build zero-copy.
func randomTyped(rng *rand.Rand, dag, sorted bool) (int, []Edge) {
	n := 1 + rng.Intn(24)
	m := rng.Intn(4*n + 1)
	if !dag && n > 1 {
		m += n // dense enough that nearly every unrestricted draw is cyclic
	}
	kinds := []EdgeKind{SO, RT, WR, WW, RW, RW}
	objs := []string{"", "x", "y"}
	perm := rng.Perm(n)
	es := make([]Edge, 0, m)
	for len(es) < m {
		a, b := rng.Intn(n), rng.Intn(n)
		if dag {
			if a == b {
				m--
				continue
			}
			if perm[a] > perm[b] {
				a, b = b, a
			}
		}
		es = append(es, Edge{From: a, To: b, Kind: kinds[rng.Intn(len(kinds))], Obj: objs[rng.Intn(len(objs))]})
		if rng.Intn(4) == 0 && len(es) < m { // a parallel edge of another kind
			es = append(es, Edge{From: a, To: b, Kind: kinds[rng.Intn(len(kinds))], Obj: "p"})
		}
	}
	if sorted {
		sort.SliceStable(es, func(i, j int) bool { return es[i].From < es[j].From })
	}
	return n, es
}

// TestBuilderMatchesAppendChains: a graph built through the Builder is,
// out list by out list and answer by answer, the graph the per-node
// append chains produced.
func TestBuilderMatchesAppendChains(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	zeroCopy := 0
	for trial := 0; trial < 2400; trial++ {
		n, es := randomTyped(rng, trial%3 == 0, trial%2 == 0)
		ref := make(refGraph, n)
		b := NewBuilder(n, rng.Intn(len(es)+2)) // hints below, at and above the truth
		for _, e := range es {
			ref.addEdge(e)
			b.AddEdge(e)
		}
		log := b.log
		g := b.Build()
		if len(log) > 0 && len(g.edges) > 0 && &log[0] == &g.edges[0] {
			zeroCopy++
		} else if trial%2 == 0 && len(es) > 0 {
			t.Fatalf("trial %d: a log sorted by From was copied", trial)
		}
		if g.Len() != n || g.NumEdges() != ref.numEdges() {
			t.Fatalf("trial %d: %d nodes %d edges, want %d and %d", trial, g.Len(), g.NumEdges(), n, ref.numEdges())
		}
		for v := 0; v < n; v++ {
			if out := g.Out(v); len(out) != len(ref[v]) || (len(out) > 0 && !reflect.DeepEqual(out, ref[v])) {
				t.Fatalf("trial %d: Out(%d) = %v, want %v", trial, v, out, ref[v])
			}
		}
		if got, want := g.FindCycle(), ref.findCycle(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: FindCycle = %v, want %v", trial, got, want)
		}
		got, ok := g.TopoSort()
		want, wantOK := ref.topoSort()
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: TopoSort = %v %v, want %v %v", trial, got, ok, want, wantOK)
		}
		if ok != g.Acyclic() {
			t.Fatalf("trial %d: Acyclic disagrees with TopoSort", trial)
		}
	}
	if zeroCopy < 1000 {
		t.Fatalf("only %d sorted logs became the arena", zeroCopy)
	}
}

// TestComposedSearchMatchesInducedGraph: searching G′ in place returns
// the cycle the search of the materialized G′ returned, and the witness
// the eager expansion map produced from it.
func TestComposedSearchMatchesInducedGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cyclic := 0
	const trials = 3600
	for trial := 0; trial < trials; trial++ {
		n, es := randomTyped(rng, trial%3 == 0, trial%2 == 0)
		ref := make(refGraph, n)
		for _, e := range es {
			ref.addEdge(e)
		}
		gi, expand := ref.induceSI()
		wantCycle := gi.findCycle()
		wantWitness := refExpand(wantCycle, expand)
		cycle, witness := build(n, es).FindComposedCycle()
		if !reflect.DeepEqual(cycle, wantCycle) || !reflect.DeepEqual(witness, wantWitness) {
			t.Fatalf("trial %d (%v):\ncycle   %v\nwant    %v\nwitness %v\nwant    %v", trial, es, cycle, wantCycle, witness, wantWitness)
		}
		if cycle != nil {
			cyclic++
			validateCycle(t, cycle)
			validateCycle(t, witness)
		}
	}
	t.Logf("%d of %d graphs cyclic", cyclic, trials)
	if cyclic < trials/2 || cyclic > trials*4/5 {
		t.Fatalf("%d of %d graphs cyclic; the mix should be about two thirds", cyclic, trials)
	}
}

// The closure, the reach pool and the acyclicity check as they ran over
// [][]int out-neighbour lists before they read the Graph: a LIFO Kahn
// order, rows unioned along its reverse, one DFS per source.

func refAdj(n int, es []Edge) [][]int {
	out := make([][]int, n)
	for _, e := range es {
		out[e.From] = append(out[e.From], e.To)
	}
	return out
}

func refKahn(out [][]int) ([]int, bool) {
	indeg := make([]int, len(out))
	for _, ws := range out {
		for _, w := range ws {
			indeg[w]++
		}
	}
	var order, queue []int
	for v := range out {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, v)
		for _, w := range out[v] {
			if indeg[w]--; indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return order, len(order) == len(out)
}

func refClosure(out [][]int) ([]Bitset, bool) {
	order, ok := refKahn(out)
	if !ok {
		return nil, false
	}
	rows := make([]Bitset, len(out))
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		rows[v] = NewBitset(len(out))
		rows[v].Set(v)
		for _, w := range out[v] {
			rows[v].UnionWith(rows[w])
		}
	}
	return rows, true
}

func refReachRows(out [][]int, sources []int) []Bitset {
	rows := make([]Bitset, len(sources))
	for i, src := range sources {
		seen := NewBitset(len(out))
		seen.Set(src)
		for stack := []int{src}; len(stack) > 0; {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range out[v] {
				if !seen.Test(w) {
					seen.Set(w)
					stack = append(stack, w)
				}
			}
		}
		rows[i] = seen
	}
	return rows
}

// TestReachabilityMatchesAdjacencyLists: over the CSR Graph, Acyclic,
// NewClosure and ReachPool give what the adjacency-list implementations
// gave — the same verdict, the same closure row for row, the same reach
// rows (cyclic graphs included: a reach row needs no order) — at every
// parallelism.
func TestReachabilityMatchesAdjacencyLists(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ctx := context.Background()
	cyclic := 0
	const trials = 2400
	for trial := 0; trial < trials; trial++ {
		n, es := randomTyped(rng, trial%5 < 3, trial%2 == 0)
		out := refAdj(n, es)
		g := build(n, es)
		wantRows, wantOK := refClosure(out)
		if !wantOK {
			cyclic++
		}
		if got := g.Acyclic(); got != wantOK {
			t.Fatalf("trial %d (%v): Acyclic = %v, want %v", trial, es, got, wantOK)
		}
		sources := make([]int, 1+rng.Intn(n))
		for i := range sources {
			sources[i] = rng.Intn(n) // repeats allowed
		}
		wantReach := refReachRows(out, sources)
		for _, par := range []int{1, 2, 4} {
			c, ok, err := NewClosure(ctx, g, par)
			if err != nil || ok != wantOK || (c != nil) != wantOK {
				t.Fatalf("trial %d par %d (%v): NewClosure = %v %v %v, want ok %v", trial, par, es, c, ok, err, wantOK)
			}
			for v := 0; ok && v < n; v++ {
				if !slices.Equal(c.rows[v], wantRows[v]) {
					t.Fatalf("trial %d par %d (%v): closure row %d = %v, want %v", trial, par, es, v, c.rows[v], wantRows[v])
				}
			}
			rows, err := NewReachPool(g, par).Rows(ctx, sources)
			if err != nil || len(rows) != len(sources) {
				t.Fatalf("trial %d par %d: Rows = %d rows, %v", trial, par, len(rows), err)
			}
			for i := range rows {
				if !slices.Equal(rows[i], wantReach[i]) {
					t.Fatalf("trial %d par %d (%v): reach row of %d = %v, want %v", trial, par, es, sources[i], rows[i], wantReach[i])
				}
			}
		}
	}
	t.Logf("%d of %d graphs cyclic", cyclic, trials)
	if cyclic < trials*3/10 || cyclic > trials/2 {
		t.Fatalf("%d of %d graphs cyclic; the mix should be about two fifths", cyclic, trials)
	}
}
