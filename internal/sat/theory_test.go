package sat

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

// referenceSICheck rebuilds the composed graph from scratch and checks
// acyclicity — the oracle for the incremental theory with compose.
func referenceSICheck(n int, active []Edge) bool {
	rwOut := make([][]int, n)
	var base []Edge
	for _, e := range active {
		if e.Kind == RW {
			rwOut[e.From] = append(rwOut[e.From], e.To)
		} else {
			base = append(base, e)
		}
	}
	out := make([][]int, n)
	indeg := make([]int, n)
	add := func(a, b int) {
		out[a] = append(out[a], b)
		indeg[b]++
	}
	for _, b := range base {
		add(b.From, b.To)
		for _, c := range rwOut[b.To] {
			add(b.From, c)
		}
	}
	var q []int
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			q = append(q, v)
		}
	}
	seen := 0
	for len(q) > 0 {
		v := q[len(q)-1]
		q = q[:len(q)-1]
		seen++
		for _, w := range out[v] {
			indeg[w]--
			if indeg[w] == 0 {
				q = append(q, w)
			}
		}
	}
	return seen == n
}

// referenceAcyclicCheck is the oracle for the theory without compose.
func referenceAcyclicCheck(n int, active []Edge) bool {
	out := make([][]int, n)
	indeg := make([]int, n)
	for _, e := range active {
		out[e.From] = append(out[e.From], e.To)
		indeg[e.To]++
	}
	var q []int
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			q = append(q, v)
		}
	}
	seen := 0
	for len(q) > 0 {
		v := q[len(q)-1]
		q = q[:len(q)-1]
		seen++
		for _, w := range out[v] {
			indeg[w]--
			if indeg[w] == 0 {
				q = append(q, w)
			}
		}
	}
	return seen == n
}

// driveTheory exercises a theory with a random push/pop sequence,
// mirroring how the solver uses it: Pop only after failed Checks, and
// random backjumps. It compares every Check verdict against the oracle.
func driveTheory(t *testing.T, rng *rand.Rand, mk func(n int) *theory,
	oracle func(n int, active []Edge) bool) bool {
	t.Helper()
	n := 3 + rng.Intn(6)
	th := mk(n)
	randEdges := func() []Edge {
		var es []Edge
		for i := 0; i <= rng.Intn(3); i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			kind := Base
			if rng.Intn(3) == 0 {
				kind = RW
			}
			es = append(es, Edge{From: a, To: b, Kind: kind})
		}
		return es
	}
	// Stack of (level, edges) mirroring solver state. Level 0 = known.
	type lvl struct {
		level int
		edges []Edge
	}
	stack := []lvl{{level: 0, edges: randEdges()}}
	th.Push(0, stack[0].edges)
	active := func() []Edge {
		var all []Edge
		for _, l := range stack {
			all = append(all, l.edges...)
		}
		return all
	}
	check := func() bool {
		_, ok := th.Check()
		want := oracle(n, active())
		if ok != want {
			t.Logf("n=%d stack=%v incremental=%v oracle=%v", n, stack, ok, want)
			return false
		}
		// The solver pops a failed level immediately; mirror that so the
		// "acyclic before every push" invariant holds.
		if !ok {
			keep := stack[len(stack)-1].level - 1
			th.Pop(keep)
			stack = stack[:len(stack)-1]
		}
		return true
	}
	if !check() {
		return false
	}
	if len(stack) == 0 {
		return true // the known edges alone were cyclic; nothing to drive
	}
	for step := 0; step < 40; step++ {
		if rng.Intn(3) != 0 || len(stack) == 1 {
			level := stack[len(stack)-1].level + 1
			es := randEdges()
			stack = append(stack, lvl{level: level, edges: es})
			th.Push(level, es)
			if !check() {
				return false
			}
		} else {
			// Backjump to a random earlier level.
			idx := rng.Intn(len(stack)-1) + 1
			keep := stack[idx-1].level
			th.Pop(keep)
			stack = stack[:idx]
		}
	}
	return true
}

func TestPropertyIncrementalSITheoryMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		return driveTheory(t, rng, func(n int) *theory { return newTheory(context.Background(), n, true) }, referenceSICheck)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyIncrementalAcyclicTheoryMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		return driveTheory(t, rng, func(n int) *theory { return newTheory(context.Background(), n, false) }, referenceAcyclicCheck)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSITheoryPopRestoresExactly(t *testing.T) {
	th := newTheory(context.Background(), 4, true)
	th.Push(0, []Edge{{From: 0, To: 1, Kind: Base}})
	before := len(th.comp[0])
	th.Push(1, []Edge{{From: 1, To: 2, Kind: Base}, {From: 2, To: 3, Kind: RW}})
	th.Push(2, []Edge{{From: 3, To: 0, Kind: Base}})
	th.Pop(0)
	if len(th.comp[0]) != before || len(th.comp[1]) != 0 || len(th.comp[3]) != 0 {
		t.Fatal("pop did not restore composed adjacency")
	}
	if len(th.baseIn[2]) != 0 || len(th.rwOut[2]) != 0 {
		t.Fatal("pop did not restore indexes")
	}
	if len(th.marks) != 1 {
		t.Fatalf("marks = %d", len(th.marks))
	}
}

func TestSITheorySamePushComposition(t *testing.T) {
	// A base edge and an rw edge pushed TOGETHER must still compose:
	// base 0->1 with rw 1->0 yields the composed self-loop 0->0.
	th := newTheory(context.Background(), 2, true)
	th.Push(0, nil)
	if _, ok := th.Check(); !ok {
		t.Fatal("empty must pass")
	}
	th.Push(1, []Edge{{From: 0, To: 1, Kind: Base}, {From: 1, To: 0, Kind: RW}})
	if lvls, ok := th.Check(); ok {
		t.Fatal("composed self-loop missed")
	} else if !containsLevel(lvls, 1) {
		t.Fatalf("conflict levels %v must include 1", lvls)
	}
	// And in the opposite intra-push order.
	th2 := newTheory(context.Background(), 2, true)
	th2.Push(0, nil)
	th2.Push(1, []Edge{{From: 1, To: 0, Kind: RW}, {From: 0, To: 1, Kind: Base}})
	if _, ok := th2.Check(); ok {
		t.Fatal("composed self-loop missed (rw first)")
	}
}

func TestSolverStatisticsPopulated(t *testing.T) {
	cons := []Constraint{
		{A: []Edge{be(0, 1)}, B: []Edge{be(1, 0)}},
		{A: []Edge{be(1, 2)}, B: []Edge{be(2, 1)}},
	}
	r := solveAcyclic(3, nil, cons)
	if !r.Sat || r.Decisions == 0 {
		t.Fatalf("stats: %+v", r)
	}
	if len(r.Choices) != 2 {
		t.Fatalf("choices: %+v", r.Choices)
	}
}
