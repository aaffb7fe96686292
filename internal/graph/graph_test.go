package graph

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func edges(pairs ...[2]int) []Edge {
	out := make([]Edge, len(pairs))
	for i, p := range pairs {
		out[i] = Edge{From: p[0], To: p[1], Kind: WW}
	}
	return out
}

func build(n int, es []Edge) *Graph {
	b := NewBuilder(n, len(es))
	for _, e := range es {
		b.AddEdge(e)
	}
	return b.Build()
}

func TestAcyclicEmpty(t *testing.T) {
	g := build(0, nil)
	if !g.Acyclic() {
		t.Fatal("empty graph must be acyclic")
	}
	if c := g.FindCycle(); c != nil {
		t.Fatalf("unexpected cycle %v", c)
	}
}

func TestAcyclicChain(t *testing.T) {
	g := build(4, edges([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}))
	if !g.Acyclic() {
		t.Fatal("chain must be acyclic")
	}
	if c := g.FindCycle(); c != nil {
		t.Fatalf("unexpected cycle %v", c)
	}
	order, ok := g.TopoSort()
	if !ok {
		t.Fatal("chain must topo-sort")
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("topo order %v, want %v", order, want)
		}
	}
}

func TestSelfLoop(t *testing.T) {
	g := build(2, edges([2]int{1, 1}))
	if g.Acyclic() {
		t.Fatal("self loop must be cyclic")
	}
	c := g.FindCycle()
	if len(c) != 1 || c[0].From != 1 || c[0].To != 1 {
		t.Fatalf("want self-loop cycle, got %v", c)
	}
}

func TestTwoCycle(t *testing.T) {
	g := build(3, edges([2]int{0, 1}, [2]int{1, 0}, [2]int{1, 2}))
	if g.Acyclic() {
		t.Fatal("must be cyclic")
	}
	c := g.FindCycle()
	validateCycle(t, c)
	if len(c) != 2 {
		t.Fatalf("want 2-cycle, got %v", c)
	}
}

// validateCycle checks that a returned cycle is a well-formed closed walk.
func validateCycle(t *testing.T, c []Edge) {
	t.Helper()
	if len(c) == 0 {
		t.Fatal("empty cycle")
	}
	for i, e := range c {
		next := c[(i+1)%len(c)]
		if e.To != next.From {
			t.Fatalf("cycle not contiguous at %d: %v", i, c)
		}
	}
	if c[len(c)-1].To != c[0].From {
		t.Fatalf("cycle not closed: %v", c)
	}
}

func TestCycleIsSimple(t *testing.T) {
	// Two lobes sharing node 0; the cycle found must not repeat nodes.
	g := build(5, edges(
		[2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0},
		[2]int{0, 3}, [2]int{3, 4}, [2]int{4, 0},
	))
	c := g.FindCycle()
	validateCycle(t, c)
	seen := map[int]bool{}
	for _, e := range c {
		if seen[e.From] {
			t.Fatalf("node %d repeated in cycle %v", e.From, c)
		}
		seen[e.From] = true
	}
}

// refOf is the adjacency-list reference graph of an edge list.
func refOf(n int, es []Edge) refGraph {
	g := make(refGraph, n)
	for _, e := range es {
		g.addEdge(e)
	}
	return g
}

// The TestSCCs* cases pin refGraph.sccs, the oracle
// TestPropertyCycleDetectionAgreesWithSCC holds Acyclic and FindCycle
// to, on graphs whose components are known.

func TestSCCsChain(t *testing.T) {
	sccs := refOf(3, edges([2]int{0, 1}, [2]int{1, 2})).sccs()
	if len(sccs) != 3 {
		t.Fatalf("want 3 singleton SCCs, got %v", sccs)
	}
}

func TestSCCsOneBigComponent(t *testing.T) {
	sccs := refOf(4, edges([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 0})).sccs()
	if len(sccs) != 1 || len(sccs[0]) != 4 {
		t.Fatalf("want one SCC of 4 nodes, got %v", sccs)
	}
}

func TestSCCsMixed(t *testing.T) {
	// {0,1} cycle -> 2 -> {3,4} cycle
	sccs := refOf(5, edges(
		[2]int{0, 1}, [2]int{1, 0},
		[2]int{1, 2},
		[2]int{2, 3}, [2]int{3, 4}, [2]int{4, 3},
	)).sccs()
	if len(sccs) != 3 {
		t.Fatalf("want 3 SCCs, got %v", sccs)
	}
	sizes := []int{}
	for _, c := range sccs {
		sizes = append(sizes, len(c))
	}
	sort.Ints(sizes)
	if sizes[0] != 1 || sizes[1] != 2 || sizes[2] != 2 {
		t.Fatalf("want sizes [1 2 2], got %v", sizes)
	}
}

func TestReachable(t *testing.T) {
	g := build(4, edges([2]int{0, 1}, [2]int{1, 2}))
	r := g.Reachable(0)
	want := []bool{true, true, true, false}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("reachable = %v, want %v", r, want)
		}
	}
}

func TestTopoSortCyclic(t *testing.T) {
	g := build(2, edges([2]int{0, 1}, [2]int{1, 0}))
	if _, ok := g.TopoSort(); ok {
		t.Fatal("cyclic graph must not topo-sort")
	}
}

func TestFormatCycle(t *testing.T) {
	c := []Edge{
		{From: 2, To: 3, Kind: WW, Obj: "x"},
		{From: 3, To: 2, Kind: RW, Obj: "x"},
	}
	got := FormatCycle(c)
	want := "T2 -WW(x)-> T3 -RW(x)-> T2"
	if got != want {
		t.Fatalf("FormatCycle = %q, want %q", got, want)
	}
	if FormatCycle(nil) != "<no cycle>" {
		t.Fatal("nil cycle formatting")
	}
}

func TestEdgeKindString(t *testing.T) {
	cases := map[EdgeKind]string{SO: "SO", RT: "RT", WR: "WR", WW: "WW", RW: "RW", AUX: "AUX"}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%v.String() = %q, want %q", uint8(k), k.String(), want)
		}
	}
	if EdgeKind(42).String() != "EdgeKind(42)" {
		t.Fatal("unknown kind formatting")
	}
}

func TestEdgeString(t *testing.T) {
	e := Edge{From: 1, To: 2, Kind: WR, Obj: "k"}
	if e.String() != "T1 -WR(k)-> T2" {
		t.Fatalf("Edge.String = %q", e.String())
	}
	e2 := Edge{From: 1, To: 2, Kind: SO}
	if e2.String() != "T1 -SO-> T2" {
		t.Fatalf("Edge.String = %q", e2.String())
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	for _, e := range []Edge{{From: 0, To: 5, Kind: WR, Obj: "x"}, {From: -1, To: 0}, {From: 1, To: 0}, {From: 0, To: -1}} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, e.String()) {
					t.Fatalf("AddEdge(%v): want a panic naming the edge, got %q", e, msg)
				}
			}()
			NewBuilder(1, 0).AddEdge(e)
		}()
	}
}

// randomDAG builds a DAG by only adding forward edges under a random
// permutation, so Acyclic must hold.
func randomDAG(rng *rand.Rand, n, m int) *Graph {
	perm := rng.Perm(n)
	g := NewBuilder(n, m)
	for i := 0; i < m; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if perm[a] > perm[b] {
			a, b = b, a
		}
		g.AddEdge(Edge{From: a, To: b, Kind: WW})
	}
	return g.Build()
}

func TestPropertyRandomDAGsAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomDAG(rng, n, 3*n)
		if !g.Acyclic() {
			return false
		}
		if g.FindCycle() != nil {
			return false
		}
		order, ok := g.TopoSort()
		if !ok || len(order) != n {
			return false
		}
		// Verify topological property.
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for u := 0; u < n; u++ {
			for _, e := range g.Out(u) {
				if pos[e.From] >= pos[e.To] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCycleDetectionAgreesWithSCC(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		m := rng.Intn(4 * n)
		es := make([]Edge, m)
		for i := range es {
			es[i] = Edge{From: rng.Intn(n), To: rng.Intn(n), Kind: WW}
		}
		g := build(n, es)
		hasBigSCC := false
		for _, c := range refOf(n, es).sccs() {
			if len(c) > 1 {
				hasBigSCC = true
			}
		}
		hasSelfLoop := false
		for u := 0; u < n; u++ {
			for _, e := range g.Out(u) {
				if e.To == u {
					hasSelfLoop = true
				}
			}
		}
		cyclic := hasBigSCC || hasSelfLoop
		if g.Acyclic() == cyclic {
			return false
		}
		c := g.FindCycle()
		if cyclic != (c != nil) {
			return false
		}
		if c != nil {
			for i, e := range c {
				if e.To != c[(i+1)%len(c)].From {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
