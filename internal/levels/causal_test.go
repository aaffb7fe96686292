package levels

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mtc/internal/core"
	"mtc/internal/corpus"
	"mtc/internal/graph"
	"mtc/internal/history"
)

// closureFirstRW is the CAUSAL rung's RW scan as it ran over the all-pairs
// closure of CO, kept as the oracle firstClosedRW is held to: the first RW
// arc, by source and then out-list position, whose target reaches its
// source.
func closureFirstRW(t *testing.T, g, co *graph.Graph) (graph.Arc, bool) {
	t.Helper()
	cl, ok, err := graph.NewClosure(context.Background(), co)
	if err != nil || !ok {
		t.Fatalf("closure of CO: acyclic %v, %v", ok, err)
	}
	for u := 0; u < g.Len(); u++ {
		for _, a := range g.Out(u) {
			if a.Kind == graph.RW && cl.Reach(int(a.To), int(a.From)) {
				return a, true
			}
		}
	}
	return graph.Arc{}, false
}

// checkFirstClosedRW compares the bit-parallel scan with the closure's on
// one graph whose CO part is acyclic.
func checkFirstClosedRW(t *testing.T, g *graph.Graph, tag string) bool {
	t.Helper()
	co := g.Subgraph(1<<graph.SO | 1<<graph.WR)
	if co.FindCycle() != nil {
		return false
	}
	got, closed, err := firstClosedRW(context.Background(), g, co)
	if err != nil {
		t.Fatal(err)
	}
	want, wantClosed := closureFirstRW(t, g, co)
	if closed != wantClosed || got != want {
		t.Fatalf("%s: firstClosedRW = %+v %v, closure scan %+v %v", tag, got, closed, want, wantClosed)
	}
	return closed
}

// TestFirstClosedRWMatchesClosure holds the CAUSAL rung's reachability to
// the closure it replaced, arc for arc: over the dependency graphs of the
// fixtures, the differential corpus and corpus.Shapes, and over random
// graphs with hundreds of RW targets, so that a closed arc can sit in any
// 64-target block and an earlier block's find can be beaten by a later
// one's.
func TestFirstClosedRWMatchesClosure(t *testing.T) {
	derive := func(h *history.History, tag string) {
		ix := history.NewIndex(h)
		if len(history.CheckInternalIndexed(ix)) > 0 {
			return
		}
		d, err := core.BuildDependencyCtx(context.Background(), ix)
		if err != nil {
			t.Fatal(err)
		}
		checkFirstClosedRW(t, d.Graph, tag)
	}
	for _, f := range history.Fixtures() {
		derive(f.H, f.Name)
	}
	corpus.Differential(corpus.Shape{Seeds: 20, Sessions: 3, Objects: 4, Bugs: 3}, derive)
	for _, s := range corpus.Shapes(1200, 3) {
		derive(s.H, s.Name)
	}

	rng := rand.New(rand.NewSource(33))
	closed := 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(400)
		b := graph.NewBuilder(n, 0)
		for range 2 * n { // CO edges run forward in node order: acyclic
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			kind := graph.SO
			if rng.Intn(2) == 0 {
				kind = graph.WR
			}
			b.AddEdge(graph.Edge{From: min(u, v), To: max(u, v), Kind: kind, Obj: "x"})
		}
		backward := 1 + rng.Intn(4*n) // most RW arcs cannot close; a few late ones can
		for range n {
			u, v := rng.Intn(n), rng.Intn(n)
			if rng.Intn(backward) != 0 {
				u, v = min(u, v), max(u, v)
			}
			b.AddEdge(graph.Edge{From: u, To: v, Kind: graph.RW, Obj: "y"})
		}
		if checkFirstClosedRW(t, b.Build(), fmt.Sprintf("random trial %d", trial)) {
			closed++
		}
	}
	if closed < trials/5 || closed > trials*4/5 {
		t.Fatalf("%d of %d random graphs closed an RW arc; the mix should be nearer half", closed, trials)
	}
}

// lostUpdates builds an n-transaction history over 64 keys in 8 sessions:
// each key a chain of read-modify-writes, where every fourth version is
// read and overwritten twice, by neighbours in different sessions — a
// lost update. Ids ascend along SO and WR, so CO is acyclic and the
// concurrent pair closes no CO path: the history is causal, and the rung
// scans every RW arc.
func lostUpdates(n int) *history.History {
	const keys, sessions = 64, 8
	names := make([]history.Key, keys)
	for k := range names {
		names[k] = history.Key(fmt.Sprintf("k%d", k))
	}
	b := history.NewBuilder(names...)
	cur := make([]history.Value, keys)
	next := history.Value(1)
	for i := 1; i < n; i++ {
		k := i % keys
		v := next
		next++
		b.Txn(i%sessions, history.R(names[k], cur[k]), history.W(names[k], v))
		if i%(4*keys) < keys && i+1 < n { // the other half of the lost update
			i++
			w := next
			next++
			b.Txn(i%sessions, history.R(names[k], cur[k]), history.W(names[k], w))
			v = w
		}
		cur[k] = v
	}
	return b.Build()
}

// TestCausalRungIsLinearInMemory: the CAUSAL rung on a 40 000-transaction
// lost-update history allocates a small multiple of n, not the n²/8 bytes
// (200 MB here) an all-pairs closure of CO takes.
func TestCausalRungIsLinearInMemory(t *testing.T) {
	const n = 40_000
	ix := history.NewIndex(lostUpdates(n))
	ctx := context.Background()
	if si, err := core.CheckCtx(ctx, ix, core.SI); err != nil || si.OK || si.Divergence == nil {
		t.Fatalf("the history should lose updates: %v", si.Explain())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := CheckLevel(ctx, ix, core.CAUSAL)
	runtime.ReadMemStats(&after)
	if err != nil || !res.OK {
		t.Fatalf("CAUSAL: %v %v", res.Explain(), err)
	}
	const limit = 32 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("CAUSAL rung: %.1f MB on %d txns", float64(got)/(1<<20), n)
	if got > limit {
		t.Fatalf("CAUSAL rung allocated %d MB on %d txns, want <= %d MB (an n²/8 closure is %d MB)",
			got>>20, n, limit>>20, n*n/8>>20)
	}
}
