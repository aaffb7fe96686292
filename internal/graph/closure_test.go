package graph

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

func TestBitsetOps(t *testing.T) {
	b := NewBitset(130)
	for _, i := range []int{0, 63, 64, 127, 129} {
		if b.Test(i) {
			t.Fatalf("bit %d set in empty bitset", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := b.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	o := NewBitset(130)
	o.Set(1)
	o.Set(128)
	b.UnionWith(o)
	for _, i := range []int{0, 1, 63, 64, 127, 128, 129} {
		if !b.Test(i) {
			t.Fatalf("bit %d missing after union", i)
		}
	}
	b.Clear()
	if b.Count() != 0 {
		t.Fatal("Clear left bits set")
	}
}

// randomDAG returns adjacency of a random DAG (edges only i -> j, i < j).
func randomDAGAdj(rng *rand.Rand, n int, p float64) [][]int {
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				out[i] = append(out[i], j)
			}
		}
	}
	return out
}

// adjGraph is the Graph of an adjacency.
func adjGraph(out [][]int) *Graph {
	b := NewBuilder(len(out), 0)
	for u, ws := range out {
		for _, w := range ws {
			b.AddEdge(Edge{From: u, To: w, Kind: AUX})
		}
	}
	return b.Build()
}

// TestClosureMatchesBFS cross-checks the closure against plain
// per-source search (refReachRows) on random DAGs.
func TestClosureMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(120)
		out := randomDAGAdj(rng, n, 0.08)
		g := adjGraph(out)
		c, ok, err := NewClosure(context.Background(), g)
		if err != nil || !ok {
			t.Fatalf("trial %d: closure failed: ok=%v err=%v", trial, ok, err)
		}
		for u := 0; u < n; u++ {
			want := refReachRows(out, []int{u})[0]
			for v := 0; v < n; v++ {
				if c.Reach(u, v) != want.Test(v) {
					t.Fatalf("trial %d: reach(%d,%d) = %v, search says %v",
						trial, u, v, c.Reach(u, v), want.Test(v))
				}
			}
		}
	}
}

func TestClosureDetectsCyclic(t *testing.T) {
	g := adjGraph([][]int{{1}, {2}, {0}})
	if _, ok, err := NewClosure(context.Background(), g); ok || err != nil {
		t.Fatalf("cyclic graph: ok=%v err=%v, want ok=false", ok, err)
	}
	if g.Acyclic() {
		t.Fatal("Acyclic missed the cycle")
	}
	if !adjGraph([][]int{{1}, {2}, nil}).Acyclic() {
		t.Fatal("Acyclic rejected a chain")
	}
}

func TestClosureHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(1))
	g := adjGraph(randomDAGAdj(rng, 200, 0.05))
	if _, _, err := NewClosure(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestReachRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 90
	out := randomDAGAdj(rng, n, 0.07)
	g := adjGraph(out)
	sources := []int{0, 5, 17, 17, 89}
	rows, err := ReachRows(context.Background(), g, sources)
	if err != nil {
		t.Fatal(err)
	}
	want := refReachRows(out, sources)
	for i, src := range sources {
		if !slices.Equal(rows[i], want[i]) {
			t.Fatalf("row[%d] (src %d) = %v, want %v", i, src, rows[i], want[i])
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReachRows(ctx, g, sources); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
