package polygraph

import (
	"context"
	"testing"

	"mtc/internal/graph"
	"mtc/internal/history"
	"mtc/internal/sat"
)

// closureOf is the test shim over graph.NewClosure for edge lists.
func closureOf(n int, edges []sat.Edge) (reacher, bool) {
	c, ok, err := graph.NewClosure(context.Background(), graphOf(n, edges), 1)
	if err != nil || !ok {
		return nil, false
	}
	return c, true
}

func TestBuildSerialChainNoResidualAfterPrune(t *testing.T) {
	h := history.SerialHistory(40, "x")
	p := Build(history.NewIndex(h))
	if p.N != len(h.Txns) {
		t.Fatalf("N = %d", p.N)
	}
	if len(p.Cons) != 0 {
		t.Fatalf("chain coalescing leaves no constraints on an RMW chain, got %d", len(p.Cons))
	}
	if ok, _ := p.Prune(context.Background(), SER, 1); !ok {
		t.Fatal("serial history must survive pruning")
	}
}

func TestBuildDivergenceUnsatInPrune(t *testing.T) {
	// Divergence: both WW orientations create a cycle with the RW edges,
	// so SER pruning alone settles it.
	b := history.NewBuilder("x")
	b.Txn(0, history.R("x", 0), history.W("x", 1))
	b.Txn(1, history.R("x", 0), history.W("x", 2))
	p := Build(history.NewIndex(b.Build()))
	if len(p.Cons) == 0 {
		t.Fatal("divergent writers must yield a constraint")
	}
	if ok, _ := p.Prune(context.Background(), SER, 1); ok {
		t.Fatal("divergence must be unsat under SER pruning")
	}
}

func TestPruneSIRejectsDivergence(t *testing.T) {
	// The same divergence under SI pruning: both orientations close a
	// composed cycle through their own induced anti-dependency, so the
	// composed-reachability pruning settles it without the solver.
	b := history.NewBuilder("x")
	b.Txn(0, history.R("x", 0), history.W("x", 1))
	b.Txn(1, history.R("x", 0), history.W("x", 2))
	p := Build(history.NewIndex(b.Build()))
	if ok, _ := p.Prune(context.Background(), SI, 1); ok {
		if r, _ := sat.SolveSI(context.Background(), p.N, p.Known, p.Cons); r.Sat {
			t.Fatal("divergence must be rejected by pruning or the solver")
		}
	}
}

func TestKnownEdgesIncludeSOWRWWRW(t *testing.T) {
	b := history.NewBuilder("x")
	t1 := b.Txn(0, history.R("x", 0), history.W("x", 1))
	t2 := b.Txn(0, history.R("x", 1), history.W("x", 2))
	t3 := b.Txn(1, history.R("x", 1))
	p := Build(history.NewIndex(b.Build()))
	hasBase := func(a, c int) bool {
		for _, e := range p.Known {
			if e.From == a && e.To == c && e.Kind == sat.Base {
				return true
			}
		}
		return false
	}
	hasRW := func(a, c int) bool {
		for _, e := range p.Known {
			if e.From == a && e.To == c && e.Kind == sat.RW {
				return true
			}
		}
		return false
	}
	if !hasBase(t1, t2) {
		t.Fatal("missing WR/WW t1->t2")
	}
	if !hasBase(t1, t3) {
		t.Fatal("missing WR t1->t3")
	}
	if !hasRW(t3, t2) {
		t.Fatal("missing derived RW t3->t2 (t3 read t1, t2 overwrote)")
	}
	if !hasBase(0, t1) {
		t.Fatal("missing SO init->t1")
	}
}

func TestClosureDetectsCycle(t *testing.T) {
	_, ok := closureOf(2, []sat.Edge{{From: 0, To: 1}, {From: 1, To: 0}})
	if ok {
		t.Fatal("cycle must be detected")
	}
	reach, ok := closureOf(3, []sat.Edge{{From: 0, To: 1}, {From: 1, To: 2}})
	if !ok {
		t.Fatal("chain is acyclic")
	}
	if !reach.Reach(0, 2) {
		t.Fatal("0 must reach 2 transitively")
	}
	if reach.Reach(2, 0) {
		t.Fatal("2 must not reach 0")
	}
}

func TestCreatesCycle(t *testing.T) {
	reach, _ := closureOf(3, []sat.Edge{{From: 0, To: 1}, {From: 1, To: 2}})
	if !createsCycle(reach, []sat.Edge{{From: 2, To: 0}}) {
		t.Fatal("2->0 closes a cycle")
	}
	if createsCycle(reach, []sat.Edge{{From: 0, To: 2}}) {
		t.Fatal("0->2 is consistent")
	}
}

func TestSIIndexComposition(t *testing.T) {
	// base 0->1 plus rw 1->2 composes to 0->2.
	idx := newSIIndex(3, []sat.Edge{
		{From: 0, To: 1, Kind: sat.Base},
		{From: 1, To: 2, Kind: sat.RW},
	})
	found := false
	for _, e := range idx.composed {
		if e.From == 0 && e.To == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing composed edge 0->2: %v", idx.composed)
	}
}

func TestOptionClosesCycleDivergence(t *testing.T) {
	// Known WR edges 0->1, 0->2; the divergence option (WW 1->2 with its
	// induced RW 2->1... both orders) must be recognized as closing a
	// composed cycle through its own new edges.
	known := []sat.Edge{
		{From: 0, To: 1, Kind: sat.Base},
		{From: 0, To: 2, Kind: sat.Base},
	}
	idx := newSIIndex(3, known)
	reach, ok := closureOf(3, idx.composed)
	if !ok {
		t.Fatal("known must be acyclic")
	}
	option := []sat.Edge{
		{From: 1, To: 2, Kind: sat.Base}, // WW 1->2
		{From: 2, To: 1, Kind: sat.RW},   // induced RW 2->1
	}
	if !idx.optionClosesCycle(reach, option) {
		t.Fatal("divergence option must close a composed cycle")
	}
	benign := []sat.Edge{{From: 1, To: 2, Kind: sat.Base}}
	if idx.optionClosesCycle(reach, benign) {
		t.Fatal("plain forward WW must not close a cycle")
	}
}
