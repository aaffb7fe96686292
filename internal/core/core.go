// Package core implements the paper's primary contribution: the MTC
// verification algorithms for strong isolation levels over mini-transaction
// histories (Section IV).
//
//   - BuildDependencyCtx constructs the (nearly unique) dependency graph
//     of an MT history in O(n), exploiting the read-modify-write pattern
//     and unique values (Algorithm 1, with the Section IV-C optimization
//     that drops the WW transitive-closure step). The graph is one edge
//     arena (graph.Builder), sized from the WR total the derivation's
//     first pass counts before it emits an edge.
//   - CheckCtx is the one batch pipeline: pre-check, that derivation, then
//     the rung for the level (Deps.Rung). SER and SI are decided in Θ(n),
//     SI detecting the DIVERGENCE pattern early (Definition 10) and
//     otherwise searching the induced graph (SO ∪ WR ∪ WW) ; RW? in
//     place over the same arena (graph.FindComposedCycle); SSER is
//     the SER cycle search plus one real-time inversion pass
//     (Deps.Inversion), O(n log n) for the timestamp sort and linear
//     after it. The paper's Θ(n²) real-time enumeration survives only as
//     the reference the tests compare against (BuildDependency withRT).
//   - CheckIncrementalWindowedCtx replays a history through the online
//     engine (Incremental) and CheckStreamCtx drives it from a stream.
//     Incremental holds two tables: one slot per version (key, value) —
//     its writer, readers and RMW overwriter — and one record per
//     transaction, indexed by its node in the online graph. The records,
//     their lists, the write sets and the graph's edges come from arenas
//     the Incremental owns (arena.go): chunked slabs that Add only ever
//     appends to, so the engine allocates per epoch, not per transaction.
//     Compact collapses the settled prefix of the graph into summary
//     edges and copies what survives into a second arena set, which
//     becomes the current one; the set left behind is refilled the epoch
//     after, so a windowed stream stops allocating once both have grown
//     to its size and no record outlives the epoch after its copy.
//     Versions identify slots, so the slot table is never re-keyed.
//   - VLLWT (in lwt.go) verifies linearizability of lightweight-transaction
//     histories in expected O(n) time (Algorithm 2).
//
// All checkers are sound and complete for MT histories with unique values;
// they pre-check the intra-transactional and G1 anomalies of Figure 5a-5g
// exactly as footnote 1 of the paper prescribes.
package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"mtc/internal/graph"
	"mtc/internal/history"
)

// Level names an isolation level. This package's own engines check the
// strong levels (SI and up); the weak rungs are evaluated by
// internal/levels over the same dependency graph.
type Level string

// The supported isolation levels, strongest first.
const (
	SSER   Level = "SSER"   // strict serializability
	SER    Level = "SER"    // serializability
	SI     Level = "SI"     // snapshot isolation
	CAUSAL Level = "CAUSAL" // causal consistency (checked by internal/levels)
	RA     Level = "RA"     // read atomic (checked by internal/levels)
	RC     Level = "RC"     // read committed (checked by internal/levels)
)

// Lattice returns every supported level in lattice order, weakest first:
// RC < RA < CAUSAL < SI < SER < SSER. The chain is total for the levels
// this repository checks (session guarantees are a separate axis).
func Lattice() []Level { return []Level{RC, RA, CAUSAL, SI, SER, SSER} }

// LatticeRank orders the lattice: 0 for RC up to 5 for SSER, -1 for any
// other name (including the profile report's "NONE" pseudo-level).
// Sharded merging and the profile walk compare rungs through it.
func LatticeRank(l Level) int {
	switch l {
	case RC:
		return 0
	case RA:
		return 1
	case CAUSAL:
		return 2
	case SI:
		return 3
	case SER:
		return 4
	case SSER:
		return 5
	}
	return -1
}

// Divergence is a witness of the DIVERGENCE pattern (Definition 10): two
// distinct committed transactions Reader1 and Reader2 both read the value
// of Key written by Writer and then write different values to Key.
type Divergence struct {
	Key              history.Key
	Writer           int
	Reader1, Reader2 int
}

// String renders the witness.
func (d Divergence) String() string {
	return fmt.Sprintf("DIVERGENCE on %s: T%d and T%d both read T%d's write and update it",
		d.Key, d.Reader1, d.Reader2, d.Writer)
}

// Result is the verdict of a checker run, with a counterexample when the
// history violates the level.
type Result struct {
	Level      Level
	OK         bool
	Anomalies  []history.Anomaly // non-empty iff the pre-check failed
	Divergence *Divergence       // non-nil iff the SI rung rejected via Definition 10
	Cycle      []graph.Edge      // non-empty iff a forbidden cycle was found
	// Stats, filled on every run.
	NumTxns  int
	NumEdges int
	// Windowed-mode stats (zero when checking unbounded): how many
	// settled transactions Incremental.Compact collapsed, over how many
	// compaction epochs.
	CompactedTxns   int
	CompactedEpochs int
}

// Explain renders a human-readable account of the verdict.
func (r Result) Explain() string {
	var b strings.Builder
	if r.OK {
		fmt.Fprintf(&b, "history satisfies %s (%d txns, %d dependency edges)", r.Level, r.NumTxns, r.NumEdges)
		return b.String()
	}
	fmt.Fprintf(&b, "history VIOLATES %s:", r.Level)
	const maxShown = 5
	for i, a := range r.Anomalies {
		if i == maxShown {
			fmt.Fprintf(&b, "\n  ... and %d more anomalies", len(r.Anomalies)-maxShown)
			break
		}
		fmt.Fprintf(&b, "\n  %s", a)
	}
	if r.Divergence != nil {
		fmt.Fprintf(&b, "\n  %s", *r.Divergence)
	}
	if len(r.Cycle) > 0 {
		fmt.Fprintf(&b, "\n  cycle: %s", graph.FormatCycle(r.Cycle))
	}
	return b.String()
}

// Deps is the one dependency derivation of an indexed history that
// every rung is evaluated over: the typed graph SO ∪ WR ∪ WW ∪ RW and
// the DIVERGENCE witnesses found while inferring WW edges. CheckCtx
// builds one per run; internal/levels builds one per profile and
// evaluates its SER, SI and SSER rungs through the same code.
type Deps struct {
	Index *history.Index
	Graph *graph.Graph
	Divs  []Divergence
}

// BuildDependency constructs the dependency graph of an MT history
// following the optimized Algorithm 1: WR edges are fixed by unique
// values, WW edges are inferred from WR when the reader also writes the
// object (the RMW pattern), and RW edges are derived from WR and WW. No
// WW transitive closure is computed (Theorems 1 and 2). When withRT is
// true the paper's Θ(n²) real-time edges (history.RealTimeOrder) are
// added as well: the definitional SSER graph, which no checking path
// builds — it is the reference the SSER rung is tested against.
//
// The second return value lists every DIVERGENCE witness found while
// inferring WW edges; the SI rung uses it for its early exit, and the
// other rungs ignore it (Lemma 3 handles those cases through cycles).
func BuildDependency(h *history.History, withRT bool) (*graph.Graph, []Divergence) {
	b, divs, _ := dependencyBuilder(context.Background(), history.NewIndex(h))
	if withRT {
		h.RealTimeOrder(func(a, c int) {
			b.AddEdge(graph.Edge{From: a, To: c, Kind: graph.RT})
		})
	}
	return b.Build(), divs
}

// BuildDependencyCtx is the derivation over a prebuilt columnar index,
// polling ctx between batches of transactions so construction of large
// graphs stops promptly under a deadline. The WR/WW/RW loops are the
// merge-join derivation of DeriveDepsCtx (see derive.go).
func BuildDependencyCtx(ctx context.Context, ix *history.Index) (*Deps, error) {
	b, divs, err := dependencyBuilder(ctx, ix)
	if err != nil {
		return nil, err
	}
	return &Deps{Index: ix, Graph: b.Build(), Divs: divs}, nil
}

// dependencyBuilder collects SO ∪ WR ∪ WW ∪ RW into a graph builder
// sized once: a transaction has at most one session predecessor, and
// short of a DIVERGENCE (where the SI rung stops before searching and
// the log simply grows) a version has one overwriter, so every RW edge
// pairs off with a WR edge of a reader that is not the overwriter —
// RW <= WR - WW, and n + 2·WR bounds the whole log.
func dependencyBuilder(ctx context.Context, ix *history.Index) (*graph.Builder, []Divergence, error) {
	rr, err := resolveReads(ctx, ix)
	if err != nil {
		return nil, nil, err
	}
	b := graph.NewBuilder(ix.NumTxns(), ix.NumTxns()+2*rr.numWR())
	ix.History().SessionOrder(func(a, c int) {
		b.AddEdge(graph.Edge{From: a, To: c, Kind: graph.SO})
	})
	divs, err := rr.emitDeps(ctx, b.AddEdge)
	if err != nil {
		return nil, nil, err
	}
	return b, divs, nil
}

// CheckCtx is the batch checking pipeline of Section IV over a columnar
// index: the INT/G1 pre-check, one dependency derivation over the same
// index (BuildDependencyCtx), and the rung for lvl (Deps.Rung). It
// decides SER and SI in Θ(n) and SSER in O(n log n). Graph construction
// and the inversion pass poll ctx, and the run returns the context's
// error instead of a verdict when the deadline fires. RC, RA and CAUSAL
// are valid Level values without a batch engine here — internal/levels
// evaluates them over the same derivation — so they, like any unknown
// level (which may originate from an API request), are reported as an
// error.
func CheckCtx(ctx context.Context, ix *history.Index, lvl Level) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	switch lvl {
	case SSER, SER, SI:
	default:
		return Result{}, fmt.Errorf("core: no batch engine for level %q", lvl)
	}
	if as := history.CheckInternalIndexed(ix); len(as) > 0 {
		return Result{Level: lvl, Anomalies: as, NumTxns: ix.NumTxns()}, nil
	}
	d, err := BuildDependencyCtx(ctx, ix)
	if err != nil {
		return Result{}, err
	}
	return d.Rung(ctx, lvl)
}

// Rung decides one strong level over the derivation; the pre-check is
// the caller's.
//
//   - SER (Definition 5): SO ∪ WR ∪ WW ∪ RW is acyclic.
//   - SI (Definition 6): reject on any DIVERGENCE witness (Lemma 1),
//     otherwise the induced graph (SO ∪ WR ∪ WW) ; RW? is acyclic —
//     searched in place by graph.FindComposedCycle, never built.
//   - SSER (Definition 4): SER with the real-time order included. A SER
//     cycle is an SSER cycle; on an acyclic derivation Inversion decides
//     the rest without materializing a real-time edge.
//
// Counterexample cycles are reported as plain dependency and RT edges,
// so they read like the paper's figures. NumEdges counts dependency
// edges at every level.
func (d *Deps) Rung(ctx context.Context, lvl Level) (Result, error) {
	g := d.Graph
	res := Result{Level: lvl, NumTxns: d.Index.NumTxns(), NumEdges: g.NumEdges()}
	switch lvl {
	case SER, SSER:
	case SI:
		if len(d.Divs) > 0 {
			div := d.Divs[0]
			res.Divergence = &div
			return res, nil
		}
	default:
		return Result{}, fmt.Errorf("core: no batch engine for level %q", lvl)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if lvl == SI {
		_, res.Cycle = g.FindComposedCycle()
	} else {
		res.Cycle = g.FindCycle()
	}
	if res.Cycle == nil && lvl == SSER {
		var err error
		if res.Cycle, err = d.Inversion(ctx); err != nil {
			return Result{}, err
		}
	}
	res.OK = res.Cycle == nil
	return res, nil
}

// Inversion is the real-time half of the SSER rung. d.Graph must be
// acyclic (the SER rung passed). The dependency DAG plus the real-time
// order has a cycle iff some dependency path S ~> T is inverted in real
// time — T finished before S started: on any mixed cycle, the
// dependency path that ends at the RT source with the smallest finish
// starts at an RT target whose own RT source finished no earlier, so
// that path is inverted. One memoized post-order DFS computing each
// node's minimum descendant finish rank decides this in O(V+E) after
// the O(n log n) sort in rtRanks, over five n-sized arrays and no
// real-time edge.
//
// It returns nil when the history is strictly serializable, else the
// witness: the dependency path S ~> T followed by the one real-time
// edge T -RT-> S that closes it. The DFS roots and edges are visited in
// index order, so the witness is deterministic.
//
//mtc:hotpath — the SSER rung's DFS over the shared graph
func (d *Deps) Inversion(ctx context.Context) ([]graph.Edge, error) {
	g := d.Graph
	start, finish := rtRanks(d.Index.History())
	// mnf[u] is the minimum finish rank over u's strict descendants (inf
	// when none is timed) and via[u] the out-edge of u that leads to it;
	// u is inverted iff mnf[u] < start[u].
	const inf = int32(1) << 30
	n := g.Len()
	mnf := make([]int32, n)
	via := make([]int32, n)
	state := make([]uint8, n) // 0 unvisited, 1 opened, 2 settled
	stack := make([]int32, 0, 1024)
	for s := 0; s < n; s++ {
		if s&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if state[s] != 0 {
			continue
		}
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v < 0 { // post-visit: children settled, fold their minima
				u := ^v
				m := inf
				for i, e := range g.Out(int(u)) {
					cm := mnf[e.To]
					if f := finish[e.To]; f >= 0 && f < cm {
						cm = f
					}
					if cm < m {
						m, via[u] = cm, int32(i)
					}
				}
				mnf[u] = m
				state[u] = 2
				if r := start[u]; r >= 0 && m < r {
					return inversionWitness(g, int(u), m, finish, via), nil
				}
				continue
			}
			if state[v] != 0 { // re-pushed by a later parent, already opened
				continue
			}
			state[v] = 1
			stack = append(stack, ^v)
			for _, e := range g.Out(int(v)) {
				if state[e.To] == 0 {
					stack = append(stack, int32(e.To))
				}
			}
		}
	}
	return nil, nil
}

// inversionWitness materializes the cycle Inversion found at s: follow
// the via edges from s down to the descendant whose finish rank is m,
// then close the path with that descendant's real-time edge back to s.
func inversionWitness(g *graph.Graph, s int, m int32, finish, via []int32) []graph.Edge {
	var cycle []graph.Edge
	for v := s; ; {
		e := g.Out(v)[via[v]]
		cycle = append(cycle, e)
		if v = e.To; finish[v] == m {
			return append(cycle, graph.Edge{From: v, To: s, Kind: graph.RT})
		}
	}
}

// rtRanks returns each transaction's start and finish positions in the
// sorted sequence of real-time events, or -1 for a transaction outside
// the real-time order (history.Txn.Timed). T really finished before S
// started iff finish[T] < start[S]: at equal timestamps starts sort
// before finishes, so Finish == Start is not precedence (RT is strict).
func rtRanks(h *history.History) (start, finish []int32) {
	type event struct {
		time    int64
		txn     int32
		isStart bool
	}
	events := make([]event, 0, 2*len(h.Txns))
	start = make([]int32, len(h.Txns))
	finish = make([]int32, len(h.Txns))
	for i := range h.Txns {
		start[i], finish[i] = -1, -1
		if t := &h.Txns[i]; t.Timed() {
			events = append(events, event{t.Start, int32(i), true}, event{t.Finish, int32(i), false})
		}
	}
	slices.SortFunc(events, func(a, b event) int {
		if c := cmp.Compare(a.time, b.time); c != 0 {
			return c
		}
		if a.isStart != b.isStart {
			if a.isStart {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.txn, b.txn)
	})
	for i, ev := range events {
		if ev.isStart {
			start[ev.txn] = int32(i)
		} else {
			finish[ev.txn] = int32(i)
		}
	}
	return start, finish
}
