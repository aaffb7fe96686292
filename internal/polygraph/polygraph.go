// Package polygraph is the polygraph pipeline the paper's two
// "state-of-the-art" baselines share: Cobra (Tan et al., OSDI'20), the SER
// baseline of Figures 7, 10, 13 and 14, and PolySI (Huang et al.,
// VLDB'23), the SI baseline of Figures 8 and 17. Check runs it end to end
// — pre-check, Build, Prune, solve — and the Mode is the whole difference
// between the two tools: which cycles the pruner may count and which
// theory the solver (internal/sat, standing in for MonoSAT) keeps acyclic.
//
// Build extracts the constraint representation of a general history:
// known dependency edges (session order, write-read, and
// read-modify-write-inferred write-write edges with their
// anti-dependencies) plus one binary constraint per undetermined pair of
// writers of the same object. Each orientation of a pair activates the
// write-write edge and the anti-dependency edges it induces (Cobra's
// "coalesced constraints").
//
// Prune implements Cobra's solver-external optimization: it repeatedly
// computes reachability over the known edges and forces every constraint
// whose one orientation would close a cycle, feeding the forced edges back
// into the known set until a fixpoint. This is the "non-solver" component
// whose cost dominates Cobra's runtime in Figure 10 (on real Cobra it is
// GPU-accelerated matrix multiplication; here it is bitset closure).
package polygraph

import (
	"context"
	"fmt"
	"sort"
	"time"

	"mtc/internal/graph"
	"mtc/internal/history"
	"mtc/internal/sat"
)

// Polygraph is the constraint problem extracted from a history.
type Polygraph struct {
	N     int
	Known []sat.Edge
	Cons  []sat.Constraint
	// Forced counts constraints resolved by Prune.
	Forced int
}

// Build constructs the polygraph over a columnar index, so one
// interning/footprint pass serves both the pre-check and the constraint
// extraction. The history must already satisfy the INT axiom and unique
// values (Check pre-checks with history.CheckInternalIndexed). Both modes
// share this construction; they differ only in the pruning condition and
// the theory they solve with. Footprint columns are sorted by interned
// key id — lexicographic key order — so the edge and constraint emission
// order matches the map-and-sort construction it replaces.
func Build(ix *history.Index) *Polygraph {
	h := ix.History()
	p := &Polygraph{N: len(h.Txns)}

	// readersOf[u] lists (key, reader) pairs: committed reader r read
	// key's value from u.
	readersOf := make([][]kr, len(h.Txns))
	// succ[ix.WriterSlot(x, u)] is the direct RMW successor of u on x (-1
	// for none): a reader of u's value of x that also wrote x. Divergent
	// histories may have several; the slot keeps the last and the others
	// start chains of their own (the WW and RW edges of all are in Known
	// either way, so divergence is still rejected).
	succ := make([]int32, ix.NumWriterSlots())
	for i := range succ {
		succ[i] = -1
	}

	h.SessionOrder(func(a, b int) {
		p.Known = append(p.Known, sat.Edge{From: a, To: b, Kind: sat.Base})
	})

	for s := range h.Txns {
		rk, rw := ix.ReadKeys(s), ix.ReadWriters(s) // empty for aborted transactions
		for i, x := range rk {
			u := int(rw[i])
			if u < 0 || u == s {
				continue
			}
			p.Known = append(p.Known, sat.Edge{From: u, To: s, Kind: sat.Base}) // WR
			readersOf[u] = append(readersOf[u], kr{key: x, r: s})
			if _, w := ix.WriteVal(s, x); w {
				p.Known = append(p.Known, sat.Edge{From: u, To: s, Kind: sat.Base}) // WW
				succ[ix.WriterSlot(x, rw[i])] = int32(s)
			}
		}
	}

	// Anti-dependencies induced by the known WW edges, emitted in
	// (writer, key) order: the edge list's order flows into the solver
	// and the pruner. A writer's keys come from its write footprint,
	// which is sorted by key; only a writer with readers has successors.
	for u := range readersOf {
		if len(readersOf[u]) == 0 {
			continue
		}
		keys, _ := ix.Writes(u)
		for _, x := range keys {
			sl := ix.WriterSlot(x, int32(u))
			if sl < 0 || succ[sl] < 0 {
				continue
			}
			w := int(succ[sl])
			for _, e := range readersOf[u] {
				if e.key == x && e.r != w {
					p.Known = append(p.Known, sat.Edge{From: e.r, To: w, Kind: sat.RW})
				}
			}
		}
	}

	// Constraints: coalesce each key's writers into read-modify-write
	// chains first (Cobra's "coalescing"). A chain — w1 -> w2 -> ... where
	// each wi+1 read wi's value before overwriting it — cannot be
	// interleaved by another write without creating a WW/RW cycle, so two
	// chains are ordered as blocks: either tail(C) -> head(D) or
	// tail(D) -> head(C), with the anti-dependencies of the tail's
	// readers. This collapses O(W²) writer pairs to O(chains²); on pure
	// MT histories every key is a single chain and no constraints remain.
	for kid := 0; kid < ix.NumKeys(); kid++ {
		x := history.KeyID(kid)
		chains := buildChains(ix, x, succ)
		for i := 0; i < len(chains); i++ {
			for j := i + 1; j < len(chains); j++ {
				c, d := chains[i], chains[j]
				p.Cons = append(p.Cons, sat.Constraint{
					A: orient(c.tail, d.head, x, readersOf),
					B: orient(d.tail, c.head, x, readersOf),
				})
			}
		}
	}
	return p
}

// chain is a maximal RMW chain of writers of one key.
type chain struct {
	head, tail int
}

// buildChains partitions the writers of key x into maximal RMW chains,
// given the slot-indexed successors succ. A writer starts a chain when
// no other committed writer's value feeds it (blind write, or its
// predecessor diverges into several successors, which cannot happen in
// well-formed RMW inference since each reader reads one value —
// divergent predecessors instead appear as two chains with the same
// feeding value, already split because succ keeps one successor per
// writer; the losers become chain heads).
func buildChains(ix *history.Index, x history.KeyID, succ []int32) []chain {
	writers := ix.WritersOf(x)
	if len(writers) == 0 {
		return nil
	}
	base := ix.WriterSlot(x, writers[0]) // x's writers hold consecutive slots
	hasPred := make([]bool, len(writers))
	for i := range writers {
		if s := succ[base+i]; s >= 0 {
			if sl := ix.WriterSlot(x, s); sl >= 0 {
				hasPred[sl-base] = true
			}
		}
	}
	inChain := make([]bool, len(writers))
	var chains []chain
	for i, w := range writers {
		if hasPred[i] {
			continue // appears mid-chain
		}
		inChain[i] = true
		tail := w
		for sl := base + i; sl >= 0 && succ[sl] >= 0; {
			tail = succ[sl]
			if sl = ix.WriterSlot(x, tail); sl >= 0 {
				inChain[sl-base] = true
			}
		}
		chains = append(chains, chain{head: int(w), tail: int(tail)})
	}
	// Writers on a cycle of succ edges (only possible in corrupt
	// histories) would be skipped above; give each its own chain so the
	// solver still sees them.
	for i, w := range writers {
		if !inChain[i] {
			chains = append(chains, chain{head: int(w), tail: int(w)})
		}
	}
	return chains
}

// kr is a (key, reader) pair: the reader read the key's value from the
// indexed transaction.
type kr struct {
	key history.KeyID
	r   int
}

// orient returns the edges activated by ordering u before w on key x: the
// WW edge plus an anti-dependency from every reader of u's value of x.
func orient(u, w int, x history.KeyID, readersOf [][]kr) []sat.Edge {
	edges := []sat.Edge{{From: u, To: w, Kind: sat.Base}}
	for _, e := range readersOf[u] {
		if e.key == x && e.r != w {
			edges = append(edges, sat.Edge{From: e.r, To: w, Kind: sat.RW})
		}
	}
	return edges
}

// Mode selects the isolation level the pipeline decides: the soundness
// condition Prune forces constraints under and the theory Check solves
// the residue with.
type Mode int

// Pipeline modes.
const (
	// SER (Cobra) treats every edge, anti-dependencies included, as cycle
	// material: any plain cycle violates serializability.
	SER Mode = iota
	// SI (PolySI) requires (SO ∪ WR ∪ WW) ; RW? to stay acyclic
	// (Definition 6). Pruning only counts base (WW/WR/SO) edges: a pure
	// base cycle is also a cycle of the SI composition, but cycles through
	// RW edges need not be, so they are left to the SI theory solver.
	SI
)

// Report is the outcome of a Check run with stage statistics.
type Report struct {
	OK bool
	// Anomalies is non-empty when the pre-check rejected the history.
	Anomalies []history.Anomaly
	// Constraints counts constraints before pruning; Forced those the
	// pruning stage resolved; Residual what reached the solver.
	Constraints int
	Forced      int
	Residual    int
	Solver      sat.Result
	// Per-phase wall-clock durations of the pipeline stages.
	BuildTime, PruneTime, SolveTime time.Duration
}

// Check verifies the indexed general (or MT) history at mode's level:
// the INT/G1 pre-check, Build, Prune over a worker pool of par (<= 0
// selects GOMAXPROCS), then the SAT search over the residue. Both the
// pruning fixpoint and the search poll ctx, so a deadline stops the run
// promptly; the Report is only meaningful when the returned error is
// nil. The verdict and all statistics except wall-clock are identical at
// every par.
func Check(ctx context.Context, ix *history.Index, mode Mode, par int) (Report, error) {
	if as := history.CheckInternalIndexed(ix); len(as) > 0 {
		return Report{OK: false, Anomalies: as}, nil
	}
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	start := time.Now()
	p := Build(ix)
	rep := Report{Constraints: len(p.Cons), BuildTime: time.Since(start)}
	start = time.Now()
	ok, err := p.Prune(ctx, mode, par)
	rep.PruneTime = time.Since(start)
	if err != nil {
		return rep, err
	}
	rep.Forced = p.Forced
	if !ok {
		return rep, nil
	}
	rep.Residual = len(p.Cons)
	solve := sat.SolveAcyclic
	if mode == SI {
		solve = sat.SolveSI
	}
	start = time.Now()
	rep.Solver, err = solve(ctx, p.N, p.Known, p.Cons)
	rep.SolveTime = time.Since(start)
	if err != nil {
		return rep, err
	}
	rep.OK = rep.Solver.Sat
	return rep, nil
}

// reacher answers reach(u, v) queries; either the full closure table or
// the sparse per-source rows a ReachPool answered.
type reacher interface {
	Reach(u, v int) bool
}

// sparseReach is a partial reachability relation: rows only for the
// sources the constraint checks actually query. serReach collects the
// source set from exactly the reach(e.To, *) probes createsCycle issues;
// querying any other source is a programming error and panics loudly
// rather than quietly answering "unreachable" (which would silently
// weaken pruning soundness).
type sparseReach struct {
	rows map[int]graph.Bitset
}

func (s sparseReach) Reach(u, v int) bool {
	row, ok := s.rows[u]
	if !ok {
		panic(fmt.Sprintf("polygraph: sparse reachability queried for uncollected source %d", u))
	}
	return row.Test(v)
}

// Prune resolves constraints forced by reachability over the known edges,
// iterating to a fixpoint. It returns false if the known edges alone are
// cyclic or some constraint is unsatisfiable both ways under the mode's
// (sound) cycle condition: the history certainly violates the level.
//
// SER uses plain reachability over every known edge. SI uses
// reachability over the COMPOSED graph (base ; rw?) of the known edges —
// an option is forced away when its own contribution to the composition
// (including compositions among its new edges) closes a composed cycle,
// the exact condition Definition 6 forbids. Both modes are sound; cycles
// requiring three or more undecided options are left to the solver.
//
// Each fixpoint round computes reachability over a worker pool of par
// (the closure fills independent topological levels concurrently; sparse
// rounds answer only the queried rows through a ReachPool) and checks the
// constraints in parallel shards against that shared snapshot. The
// verdicts are merged back in constraint order, so the forced edges, the
// Forced count and the residual constraint order are identical at every
// parallelism level. par <= 0 selects GOMAXPROCS; 1 is the serial
// reference path.
//
// ctx is polled inside the reachability computation and between
// constraint chunks, so a deadline stops the fixpoint promptly; the
// first result is then meaningless and the context's error is returned.
func (p *Polygraph) Prune(ctx context.Context, mode Mode, par int) (bool, error) {
	par = graph.Parallelism(par)
	for {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		var (
			reach reacher
			si    *siIndex
			err   error
		)
		if mode == SER {
			reach, err = p.serReach(ctx, par)
		} else {
			si = newSIIndex(p.N, p.Known)
			reach, err = composedReach(ctx, p.N, si.composed, par)
		}
		if err != nil {
			return false, err
		}
		if reach == nil {
			return false, nil // known (or composed) edges alone are cyclic
		}
		bad := func(edges []sat.Edge) bool {
			if mode == SER {
				return createsCycle(reach, edges)
			}
			return si.optionClosesCycle(reach, edges)
		}
		// Check every constraint against the same reachability snapshot in
		// parallel shards; verdicts merge serially in constraint order so
		// the Known append order matches the serial path exactly.
		const (
			keep   = iota
			forceA // B closes a cycle
			forceB // A closes a cycle
			unsat  // both orientations close cycles
		)
		verdicts := make([]uint8, len(p.Cons))
		err = graph.ParallelDo(ctx, par, len(p.Cons), func(i int) {
			c := p.Cons[i]
			aBad := bad(c.A)
			bBad := bad(c.B)
			switch {
			case aBad && bBad:
				verdicts[i] = unsat
			case aBad:
				verdicts[i] = forceB
			case bBad:
				verdicts[i] = forceA
			}
		})
		if err != nil {
			return false, err
		}
		var remaining []sat.Constraint
		changed := false
		for i, c := range p.Cons {
			switch verdicts[i] {
			case unsat:
				return false, nil
			case forceB:
				p.Known = append(p.Known, c.B...)
				p.Forced++
				changed = true
			case forceA:
				p.Known = append(p.Known, c.A...)
				p.Forced++
				changed = true
			default:
				remaining = append(remaining, c)
			}
		}
		p.Cons = remaining
		if !changed {
			return true, nil
		}
	}
}

// serReach answers the round's reachability needs for SER: a nil
// reacher (with nil error) means the known edges are cyclic. When the
// constraints query only a few distinct sources relative to N, per-source
// BFS rows through the ReachPool beat materializing the full closure
// (whose table alone costs N²/64 words); dense query sets amortize the
// closure's word-parallel unions instead.
func (p *Polygraph) serReach(ctx context.Context, par int) (reacher, error) {
	g := graphOf(p.N, p.Known)
	// createsCycle queries reach[e.To][e.From] per candidate edge.
	srcSet := make(map[int]struct{})
	//mtc:cancellation-ok linear scan of the constraint edges; the reachability build below polls ctx
	for _, c := range p.Cons {
		for _, e := range c.A {
			srcSet[e.To] = struct{}{}
		}
		for _, e := range c.B {
			srcSet[e.To] = struct{}{}
		}
	}
	if len(srcSet)*64 >= p.N {
		c, acyclic, err := graph.NewClosure(ctx, g, par)
		if err != nil || !acyclic {
			return nil, err
		}
		return c, nil
	}
	if !g.Acyclic() {
		return nil, nil
	}
	sources := make([]int, 0, len(srcSet))
	for s := range srcSet {
		sources = append(sources, s)
	}
	sort.Ints(sources)
	rows, err := graph.NewReachPool(g, par).Rows(ctx, sources)
	if err != nil {
		return nil, err
	}
	sr := sparseReach{rows: make(map[int]graph.Bitset, len(sources))}
	for i, s := range sources {
		sr.rows[s] = rows[i]
	}
	return sr, nil
}

// composedReach computes the full closure of the SI composed graph; the
// SI option check queries arbitrary composition endpoints, so the sparse
// row set cannot be bounded cheaply. nil with nil error means cyclic.
func composedReach(ctx context.Context, n int, edges []sat.Edge, par int) (reacher, error) {
	c, acyclic, err := graph.NewClosure(ctx, graphOf(n, edges), par)
	if err != nil || !acyclic {
		return nil, err
	}
	return c, nil
}

// graphOf is the graph of an edge list: one counting sort, whatever n.
func graphOf(n int, edges []sat.Edge) *graph.Graph {
	b := graph.NewBuilder(n, len(edges))
	for _, e := range edges {
		b.AddEdge(graph.Edge{From: e.From, To: e.To})
	}
	return b.Build()
}

// siIndex indexes the known edges for SI pruning: the composed graph
// (base ; rw?) plus the adjacency needed to compose a candidate option's
// new edges against the known ones.
type siIndex struct {
	composed []sat.Edge
	baseIn   [][]int // known base edges into node
	rwOut    [][]int // known rw edges out of node
}

func newSIIndex(n int, known []sat.Edge) *siIndex {
	idx := &siIndex{baseIn: make([][]int, n), rwOut: make([][]int, n)}
	for _, e := range known {
		if e.Kind == sat.RW {
			idx.rwOut[e.From] = append(idx.rwOut[e.From], e.To)
		} else {
			idx.baseIn[e.To] = append(idx.baseIn[e.To], e.From)
		}
	}
	for _, e := range known {
		if e.Kind == sat.RW {
			continue
		}
		idx.composed = append(idx.composed, sat.Edge{From: e.From, To: e.To})
		for _, c := range idx.rwOut[e.To] {
			idx.composed = append(idx.composed, sat.Edge{From: e.From, To: c})
		}
	}
	return idx
}

// optionClosesCycle reports whether activating the option's edges closes a
// cycle in the composed graph, considering compositions of the new edges
// with the known edges and with each other. It only reads idx and the
// reachability snapshot, so parallel shards may call it concurrently.
func (idx *siIndex) optionClosesCycle(reach reacher, edges []sat.Edge) bool {
	var newComp [][2]int
	add := func(a, b int) {
		newComp = append(newComp, [2]int{a, b})
	}
	for _, e := range edges {
		if e.Kind == sat.RW {
			for _, a := range idx.baseIn[e.From] {
				add(a, e.To)
			}
			continue
		}
		add(e.From, e.To)
		for _, c := range idx.rwOut[e.To] {
			add(e.From, c)
		}
		// Compose with the option's own rw edges.
		for _, r := range edges {
			if r.Kind == sat.RW && r.From == e.To {
				add(e.From, r.To)
			}
		}
	}
	for _, e := range newComp {
		if e[0] == e[1] || reach.Reach(e[1], e[0]) {
			return true
		}
	}
	for i := 0; i < len(newComp); i++ {
		for j := i + 1; j < len(newComp); j++ {
			if reach.Reach(newComp[i][1], newComp[j][0]) && reach.Reach(newComp[j][1], newComp[i][0]) {
				return true
			}
		}
	}
	return false
}

// createsCycle reports whether adding any of the edges would close a cycle
// given the reachability relation (to ~> from already).
func createsCycle(reach reacher, edges []sat.Edge) bool {
	for _, e := range edges {
		if reach.Reach(e.To, e.From) {
			return true
		}
	}
	return false
}
