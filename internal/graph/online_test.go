package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// The objects the tests' arcs name; Online never looks an Obj up.
const (
	objK int32 = iota
	objLoad
	objLoop
	objExtra
	objInv
)

// ascendingDAG returns m random edges over n nodes, every one From < To,
// with parallel edges of different kinds among them.
func ascendingDAG(rng *rand.Rand, n, m int) []Arc {
	edges := make([]Arc, m)
	for i := range edges {
		u := rng.Intn(n - 1)
		edges[i] = Arc{From: int32(u), To: int32(u + 1 + rng.Intn(n-1-u)), Kind: EdgeKind(rng.Intn(6)), Obj: objK}
	}
	return edges
}

// load refills o with n nodes and edges, the way core.Compact does.
func load(o *Online, n int, edges []Arc) {
	o.Reload(n)
	for _, e := range edges {
		o.Load(e)
	}
}

// reloaded returns a fresh graph loaded that way.
func reloaded(n int, edges []Arc) *Online {
	o := NewOnline()
	load(o, n, edges)
	return o
}

// edgeByEdge builds what Reload(n) and a Load per edge promise, the slow way.
func edgeByEdge(t *testing.T, n int, edges []Arc) *Online {
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

func TestReloadPanicsUnlessAscending(t *testing.T) {
	for _, e := range []Arc{
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
			reloaded(3, []Arc{{From: 0, To: 1}, e})
		}()
	}
}

func TestReloadMatchesEdgeByEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 40
	edges := ascendingDAG(rng, n, 120)
	bulk, ref := reloaded(n, edges), edgeByEdge(t, n, edges)
	if bulk.Len() != n {
		t.Fatalf("Len = %d, want %d", bulk.Len(), n)
	}
	for v := 0; v < n; v++ {
		if bulk.Ord(v) != v {
			t.Fatalf("Ord(%d) = %d, want the identity", v, bulk.Ord(v))
		}
		if !sameEdges(outList(bulk, v), outList(ref, v)) || !sameEdges(inList(bulk, v), inList(ref, v)) {
			t.Fatalf("adjacency of %d differs from the edge-by-edge build", v)
		}
	}
}

// lists is every node's order index and two lists, copied out.
type lists struct {
	ord     []int
	out, in [][]Arc
}

func listsOf(o *Online) lists {
	var l lists
	for v := 0; v < o.Len(); v++ {
		l.ord = append(l.ord, o.Ord(v))
		l.out = append(l.out, outList(o, v))
		l.in = append(l.in, inList(o, v))
	}
	return l
}

// TestReloadKeepsListsApart: the lists of a reloaded graph are chains
// through shared chunks, so what has to hold is that an AddEdge touches
// the out list of its source and the in list of its target and nothing
// else — and that a graph nobody reloads is left alone by whatever happens
// to another one, which is what lets core.Compact load a spare graph while
// the one it swapped out is still being read.
func TestReloadKeepsListsApart(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 30
	a, b := NewOnline(), NewOnline()
	for epoch := 0; epoch < 6; epoch++ {
		// a is the graph in use, b the one swapped out an epoch ago.
		a, b = b, a
		retired := listsOf(b)
		edges := ascendingDAG(rng, n, 40+20*epoch)
		load(a, n, edges)
		ref := edgeByEdge(t, n, edges)
		for i := 0; i < 3*n; i++ {
			u := rng.Intn(n - 1)
			e := Arc{From: int32(u), To: int32(u + 1 + rng.Intn(n-1-u)), Kind: AUX, Obj: objExtra}
			before := listsOf(a)
			if a.AddEdge(e) != nil || ref.AddEdge(e) != nil {
				t.Fatalf("ascending edge %v reported a cycle", e)
			}
			after := listsOf(a)
			for v := 0; v < n; v++ {
				wantOut, wantIn := before.out[v], before.in[v]
				if v == int(e.From) {
					wantOut = append(wantOut, e)
				}
				if v == int(e.To) {
					wantIn = append(wantIn, e)
				}
				if !sameEdges(after.out[v], wantOut) || !sameEdges(after.in[v], wantIn) {
					t.Fatalf("epoch %d: AddEdge(%v) changed the lists of %d:\nout %v\nwant %v\nin %v\nwant %v",
						epoch, e, v, after.out[v], wantOut, after.in[v], wantIn)
				}
			}
		}
		if got := listsOf(a); !reflect.DeepEqual(got, listsOf(ref)) {
			t.Fatalf("epoch %d: reloaded graph differs from the edge-by-edge build", epoch)
		}
		if got := listsOf(b); !reflect.DeepEqual(got, retired) {
			t.Fatalf("epoch %d: loading and growing one graph changed the other", epoch)
		}
	}
}

// TestReloadThenInversions: after a bulk load the structure is
// an ordinary Pearce–Kelly order. Order-inverting insertions reorder it
// exactly as they reorder the edge-by-edge build, and the closing edge
// reports the same cycle, edge for edge.
func TestReloadThenInversions(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 24
		edges := ascendingDAG(rng, n, 30)
		bulk, ref := reloaded(n, edges), edgeByEdge(t, n, edges)
		closed := false
		for i := 0; i < 200; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u <= v {
				continue // only edges against the loaded order
			}
			e := Arc{From: int32(u), To: int32(v), Kind: RW, Obj: objInv}
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
					if bulk.Ord(int(oe.From)) >= bulk.Ord(int(oe.To)) {
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
