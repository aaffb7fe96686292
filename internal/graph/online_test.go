package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// ascendingDAG returns m random edges over n nodes, every one From < To,
// with parallel edges of different kinds among them.
func ascendingDAG(rng *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		u := rng.Intn(n - 1)
		edges[i] = Edge{From: u, To: u + 1 + rng.Intn(n-1-u), Kind: EdgeKind(rng.Intn(6)), Obj: "k"}
	}
	return edges
}

// sameEdges is slice equality that does not tell nil from empty.
func sameEdges(a, b []Edge) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// edgeByEdge builds what NewOnlineOrdered(n, edges) promises, the slow way.
func edgeByEdge(t *testing.T, n int, edges []Edge) *Online {
	t.Helper()
	o := NewOnline()
	for i := 0; i < n; i++ {
		o.AddNode()
	}
	for _, e := range edges {
		if cy := o.AddEdge(e); cy != nil {
			t.Fatalf("ascending edge %v reported cycle %v", e, cy)
		}
	}
	return o
}

func TestNewOnlineOrderedPanicsUnlessAscending(t *testing.T) {
	for _, e := range []Edge{
		{From: 2, To: 1}, // descends
		{From: 1, To: 1}, // self-loop
		{From: -1, To: 1},
		{From: 1, To: 3}, // beyond n
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("edge %d -> %d over 3 nodes: want panic", e.From, e.To)
				}
			}()
			NewOnlineOrdered(3, []Edge{{From: 0, To: 1}, e})
		}()
	}
}

func TestNewOnlineOrderedMatchesEdgeByEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 40
	edges := ascendingDAG(rng, n, 120)
	bulk, ref := NewOnlineOrdered(n, edges), edgeByEdge(t, n, edges)
	if bulk.Len() != n {
		t.Fatalf("Len = %d, want %d", bulk.Len(), n)
	}
	for v := 0; v < n; v++ {
		if bulk.Ord(v) != v {
			t.Fatalf("Ord(%d) = %d, want the identity", v, bulk.Ord(v))
		}
		if !sameEdges(bulk.out[v], ref.out[v]) || !sameEdges(bulk.in[v], ref.in[v]) {
			t.Fatalf("adjacency of %d differs from the edge-by-edge build", v)
		}
	}
}

// TestNewOnlineOrderedListsDoNotShareCapacity is the cap == len property:
// the lists are neighbours in one arena, so an AddEdge that grew a list in
// place would overwrite the head of the next one.
func TestNewOnlineOrderedListsDoNotShareCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 30
	edges := ascendingDAG(rng, n, 90)
	bulk, ref := NewOnlineOrdered(n, edges), edgeByEdge(t, n, edges)
	for v := 0; v < n; v++ {
		if cap(bulk.out[v]) != len(bulk.out[v]) || cap(bulk.in[v]) != len(bulk.in[v]) {
			t.Fatalf("node %d: out len/cap %d/%d, in len/cap %d/%d", v,
				len(bulk.out[v]), cap(bulk.out[v]), len(bulk.in[v]), cap(bulk.in[v]))
		}
	}
	// One more ascending edge at every node, low to high, so each append
	// lands right where the next node's list begins.
	for v := 0; v+1 < n; v++ {
		e := Edge{From: v, To: v + 1, Kind: AUX, Obj: "extra"}
		if bulk.AddEdge(e) != nil || ref.AddEdge(e) != nil {
			t.Fatalf("ascending edge %v reported a cycle", e)
		}
	}
	for v := 0; v < n; v++ {
		if !sameEdges(bulk.out[v], ref.out[v]) || !sameEdges(bulk.in[v], ref.in[v]) {
			t.Fatalf("adjacency of %d clobbered:\nout %v\nwant %v\nin %v\nwant %v",
				v, bulk.out[v], ref.out[v], bulk.in[v], ref.in[v])
		}
	}
}

// TestNewOnlineOrderedThenInversions: after a bulk load the structure is
// an ordinary Pearce–Kelly order. Order-inverting insertions reorder it
// exactly as they reorder the edge-by-edge build, and the closing edge
// reports the same cycle, edge for edge.
func TestNewOnlineOrderedThenInversions(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 24
		edges := ascendingDAG(rng, n, 30)
		bulk, ref := NewOnlineOrdered(n, edges), edgeByEdge(t, n, edges)
		closed := false
		for i := 0; i < 200; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u <= v {
				continue // only edges against the loaded order
			}
			e := Edge{From: u, To: v, Kind: RW, Obj: "inv"}
			got, want := bulk.AddEdge(e), ref.AddEdge(e)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: AddEdge(%v) after bulk load = %v, edge by edge %v", seed, e, got, want)
			}
			if want != nil {
				closed = true
				break
			}
			if !reflect.DeepEqual(bulk.ord, ref.ord) {
				t.Fatalf("seed %d: orders diverge after %v:\nbulk %v\nref  %v", seed, e, bulk.ord, ref.ord)
			}
			for x := 0; x < n; x++ {
				for _, oe := range bulk.Out(x) {
					if bulk.Ord(oe.From) >= bulk.Ord(oe.To) {
						t.Fatalf("seed %d: order invariant broken after %v at %v", seed, e, oe)
					}
				}
			}
		}
		if !closed {
			t.Fatalf("seed %d: 200 descending edges closed no cycle", seed)
		}
	}
}
