package sat

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func be(a, b int) Edge  { return Edge{From: a, To: b, Kind: Base} }
func rwe(a, b int) Edge { return Edge{From: a, To: b, Kind: RW} }

// solveAcyclic and solveSI run the solvers without a deadline.
func solveAcyclic(n int, known []Edge, cons []Constraint) Result {
	r, _ := SolveAcyclic(context.Background(), n, known, cons)
	return r
}

func solveSI(n int, known []Edge, cons []Constraint) Result {
	r, _ := SolveSI(context.Background(), n, known, cons)
	return r
}

func TestNoConstraints(t *testing.T) {
	r := solveAcyclic(3, []Edge{be(0, 1), be(1, 2)}, nil)
	if !r.Sat {
		t.Fatal("acyclic known graph with no constraints must be sat")
	}
	r = solveAcyclic(2, []Edge{be(0, 1), be(1, 0)}, nil)
	if r.Sat {
		t.Fatal("cyclic known graph must be unsat")
	}
}

func TestSingleConstraintFreeChoice(t *testing.T) {
	r := solveAcyclic(2, nil, []Constraint{{A: []Edge{be(0, 1)}, B: []Edge{be(1, 0)}}})
	if !r.Sat || len(r.Choices) != 1 {
		t.Fatalf("result %+v", r)
	}
}

func TestConstraintForcedByKnown(t *testing.T) {
	// Known 0->1 forces the constraint to B (A would close a cycle).
	r := solveAcyclic(2, []Edge{be(0, 1)}, []Constraint{{A: []Edge{be(1, 0)}, B: []Edge{be(0, 1)}}})
	if !r.Sat {
		t.Fatal("must be sat via option B")
	}
	if r.Choices[0] {
		t.Fatal("option A closes a cycle; solver must pick B")
	}
}

func TestUnsatBothOptionsCycle(t *testing.T) {
	cons := []Constraint{
		{A: []Edge{be(0, 1)}, B: []Edge{be(0, 1)}},
		{A: []Edge{be(1, 0)}, B: []Edge{be(1, 0)}},
	}
	r := solveAcyclic(2, nil, cons)
	if r.Sat {
		t.Fatal("must be unsat")
	}
	if r.Conflicts == 0 {
		t.Fatal("expected recorded conflicts")
	}
}

func TestChainedConstraints(t *testing.T) {
	// 4 nodes; constraints form a chain that only one global orientation
	// satisfies given known edges 0->1->2->3 and a back pressure.
	known := []Edge{be(0, 1), be(1, 2), be(2, 3)}
	cons := []Constraint{
		{A: []Edge{be(3, 0)}, B: []Edge{be(0, 3)}}, // A impossible
		{A: []Edge{be(1, 3)}, B: []Edge{be(3, 1)}}, // B impossible
	}
	r := solveAcyclic(4, known, cons)
	if !r.Sat || r.Choices[0] || !r.Choices[1] {
		t.Fatalf("result %+v", r)
	}
}

func TestBackjumpScenario(t *testing.T) {
	// Early irrelevant decisions followed by an unsat core among later
	// constraints; CBJ must still answer unsat.
	var cons []Constraint
	for i := 0; i < 6; i++ {
		a, b := 2*i+2, 2*i+3
		cons = append(cons, Constraint{A: []Edge{be(a, b)}, B: []Edge{be(b, a)}})
	}
	cons = append(cons,
		Constraint{A: []Edge{be(0, 1)}, B: []Edge{be(0, 1)}},
		Constraint{A: []Edge{be(1, 0)}, B: []Edge{be(1, 0)}},
	)
	r := solveAcyclic(14, nil, cons)
	if r.Sat {
		t.Fatal("must be unsat")
	}
	// CBJ should not need to explore all 2^6 prefixes.
	if r.Decisions > 64 {
		t.Fatalf("CBJ explored %d decisions; expected far fewer", r.Decisions)
	}
}

func TestSIDivergenceUnsat(t *testing.T) {
	// The DIVERGENCE pattern of Figure 3: T1=0 writes x; T2=1 and T3=2
	// both read it and write x. Whatever the WW orientation between 1 and
	// 2, the composed graph has a cycle, so SI must be unsat.
	known := []Edge{be(0, 1), be(0, 2)} // WR edges (base)
	cons := []Constraint{{
		A: []Edge{be(1, 2), rwe(2, 2)}, // placeholder shape replaced below
	}}
	// Proper encoding: orientation A: WW 1->2 plus RW 2->2? No - readers
	// of T1 are {1,2}: A: WW(1->2) and RW(2->2) is degenerate; build it
	// the way polygraph does: reader r of u gets RW r->w for the pair
	// (u=1, w=2): A = WW 1->2, RW from readers of 1 (none) ... the
	// divergence cycle comes from readers of 0: orientation 1->2 makes
	// reader 2 of txn 0 anti-depend on 2? The full encoding lives in
	// polysi; here we hand-build the two options:
	cons = []Constraint{{
		// A: WW(x) 1->2; readers of 0 on x = {1,2}; overwriters per this
		// orientation: 1 then 2. RW edges: 2 reads 0, 1 overwrites 0:
		// RW 2->1; also RW 1->... 1 reads 0 and 2 overwrites 0: RW 1->2.
		A: []Edge{be(1, 2), rwe(1, 2), rwe(2, 1)},
		B: []Edge{be(2, 1), rwe(1, 2), rwe(2, 1)},
	}}
	r := solveSI(3, known, cons)
	if r.Sat {
		t.Fatal("divergence must be unsat under SI")
	}
}

func TestSIWriteSkewSat(t *testing.T) {
	// Write skew: RW edges both ways between 1 and 2, but no base edge
	// entering them, so the composition has no cycle: SI-sat.
	known := []Edge{be(0, 1), be(0, 2), rwe(1, 2), rwe(2, 1)}
	r := solveSI(3, known, nil)
	if !r.Sat {
		t.Fatal("write skew must be SI-sat")
	}
	// But under plain acyclicity (SER) the same edges form a cycle.
	if solveAcyclic(3, known, nil).Sat {
		t.Fatal("write skew must be SER-unsat")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	solveAcyclic(1, []Edge{be(0, 5)}, nil)
}

// bruteAcyclic enumerates all orientations.
func bruteAcyclic(n int, known []Edge, cons []Constraint) bool {
	var try func(i int, edges []Edge) bool
	isAcyclic := func(edges []Edge) bool {
		indeg := make([]int, n)
		out := make([][]int, n)
		for _, e := range edges {
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
	try = func(i int, edges []Edge) bool {
		if i == len(cons) {
			return isAcyclic(edges)
		}
		if try(i+1, append(edges, cons[i].A...)) {
			return true
		}
		return try(i+1, append(append([]Edge(nil), edges...), cons[i].B...))
	}
	return try(0, append([]Edge(nil), known...))
}

// bruteSI enumerates orientations, checking composed acyclicity.
func bruteSI(n int, known []Edge, cons []Constraint) bool {
	composedAcyclic := func(edges []Edge) bool {
		rwOut := make([][]int, n)
		var base []Edge
		for _, e := range edges {
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
	var try func(i int, edges []Edge) bool
	try = func(i int, edges []Edge) bool {
		if i == len(cons) {
			return composedAcyclic(edges)
		}
		if try(i+1, append(edges, cons[i].A...)) {
			return true
		}
		return try(i+1, append(append([]Edge(nil), edges...), cons[i].B...))
	}
	return try(0, append([]Edge(nil), known...))
}

func randomProblem(rng *rand.Rand) (int, []Edge, []Constraint) {
	n := 3 + rng.Intn(5)
	var known []Edge
	for i := 0; i < rng.Intn(2*n); i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			kind := Base
			if rng.Intn(4) == 0 {
				kind = RW
			}
			known = append(known, Edge{From: a, To: b, Kind: kind})
		}
	}
	k := rng.Intn(8)
	var cons []Constraint
	for i := 0; i < k; i++ {
		mk := func() []Edge {
			var es []Edge
			for j := 0; j <= rng.Intn(2); j++ {
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					kind := Base
					if rng.Intn(3) == 0 {
						kind = RW
					}
					es = append(es, Edge{From: a, To: b, Kind: kind})
				}
			}
			return es
		}
		cons = append(cons, Constraint{A: mk(), B: mk()})
	}
	return n, known, cons
}

func TestPropertySolveAcyclicMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, known, cons := randomProblem(rng)
		want := bruteAcyclic(n, known, cons)
		got := solveAcyclic(n, known, cons).Sat
		if want != got {
			t.Logf("n=%d known=%v cons=%v want=%v got=%v", n, known, cons, want, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySolveSIMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, known, cons := randomProblem(rng)
		want := bruteSI(n, known, cons)
		got := solveSI(n, known, cons).Sat
		if want != got {
			t.Logf("n=%d known=%v cons=%v want=%v got=%v", n, known, cons, want, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSatChoicesSatisfyTheory(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, known, cons := randomProblem(rng)
		r := solveAcyclic(n, known, cons)
		if !r.Sat {
			return true
		}
		edges := append([]Edge(nil), known...)
		for i, c := range cons {
			if r.Choices[i] {
				edges = append(edges, c.A...)
			} else {
				edges = append(edges, c.B...)
			}
		}
		return bruteAcyclic(n, edges, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestKnownGraphCheckIsLinear: with no constraints the solve is one check
// of the known graph, an O(n+m) Kahn scan under either condition. One DFS
// per known edge, O(m·(n+m)), would take seconds on this graph.
func TestKnownGraphCheckIsLinear(t *testing.T) {
	const n, m = 2000, 100000
	rng := rand.New(rand.NewSource(1))
	known := make([]Edge, 0, m)
	for len(known) < m {
		a, b := rng.Intn(n), rng.Intn(n)
		if a < b {
			known = append(known, be(a, b))
		} else if b < a {
			known = append(known, be(b, a))
		}
	}
	for name, solve := range map[string]func(int, []Edge, []Constraint) Result{
		"SolveAcyclic": solveAcyclic, "SolveSI": solveSI,
	} {
		start := time.Now()
		r := solve(n, known, nil)
		if d := time.Since(start); !r.Sat || d > time.Second {
			t.Errorf("%s on %d forward edges: sat %v in %v, want sat within 1s", name, m, r.Sat, d)
		}
	}
}
