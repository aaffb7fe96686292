// Package core implements the paper's primary contribution: the MTC
// verification algorithms for mini-transaction histories (Section IV),
// and the isolation lattice they decide from one derivation:
//
//	RC < RA < CAUSAL < SI < SER < SSER
//
// plus the four per-session guarantees (read-your-writes, monotonic
// reads, monotonic writes, writes-follow-reads) as a separate axis.
//
//   - BuildDependencyCtx constructs the (nearly unique) dependency graph
//     of an MT history in O(n), exploiting the read-modify-write pattern
//     and unique values (Algorithm 1, with the Section IV-C optimization
//     that drops the WW transitive-closure step). The graph is one edge
//     arena (graph.Builder), sized from the WR total the derivation's
//     first pass counts before it emits an edge.
//   - CheckCtx is the one batch pipeline, for every level: pre-check
//     beside that derivation, then the rung for the level (Deps.Rung).
//     SER and SI are decided in Θ(n), SI detecting the DIVERGENCE
//     pattern early (Definition 10) and otherwise searching the induced
//     graph (SO ∪ WR ∪ WW) ; RW? in place over the same arena
//     (graph.FindComposedCycle); SSER is the SER cycle search plus one
//     real-time inversion pass (Deps.Inversion), O(V+E) over the same
//     derivation with no sort. The paper's Θ(n²) real-time enumeration
//     survives only as the reference the tests compare against
//     (BuildDependency withRT).
//   - The weak rungs are verdict layers over the same typed graph
//     (weak.go). RC (PL-2) forbids the G0/G1 phenomena: the
//     dirty/intermediate/thin-air reads the pre-check reports, and G1c —
//     a cycle of WR ∪ WW edges. RA additionally forbids fractured reads:
//     a transaction that observes one of a writer's updates must not
//     observe a strictly older version of another key that writer also
//     wrote (RAMP's atomic-visibility criterion, decided over per-key
//     version orders). CAUSAL requires the causal order SO ∪ WR to be
//     acyclic and, lifted over anti-dependencies, that no transaction
//     misses a write that causally precedes it.
//   - ProfileCtx walks the whole lattice and the session guarantees over
//     one derivation, short-circuiting: a pass at a strong rung settles
//     every weaker one. Version-order comparisons (fractured reads,
//     session guarantees) treat incomparable writes — divergent branches
//     of a key's WW forest — as unordered and never flag them, so
//     blind-write histories with undetermined write orders produce no
//     false positives; divergence itself is rejected at SI.
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
//     A slot record never moves, so the version table that finds it
//     by (key, value) is never re-keyed: a compaction only deletes the
//     versions that died.
//   - VLLWT (in lwt.go) verifies linearizability of lightweight-transaction
//     histories in expected O(n) time (Algorithm 2).
//
// All checkers are sound and complete for MT histories with unique values;
// they pre-check the intra-transactional and G1 anomalies of Figure 5a-5g
// exactly as footnote 1 of the paper prescribes.
package core

import (
	"context"
	"fmt"

	"mtc/internal/graph"
	"mtc/internal/history"
	"mtc/internal/phase"
)

// Level names an isolation level of the lattice.
type Level string

// The supported isolation levels, strongest first.
const (
	SSER   Level = "SSER"   // strict serializability
	SER    Level = "SER"    // serializability
	SI     Level = "SI"     // snapshot isolation
	CAUSAL Level = "CAUSAL" // causal consistency
	RA     Level = "RA"     // read atomic
	RC     Level = "RC"     // read committed
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

// Deps is the one dependency derivation of an indexed history that
// every rung is evaluated over: the typed graph SO ∪ WR ∪ WW ∪ RW and
// the DIVERGENCE witnesses found while inferring WW edges. CheckCtx
// builds one per run and ProfileCtx one per profile; both evaluate
// their rungs through Rung.
type Deps struct {
	Index *history.Index
	Graph *graph.Graph
	Divs  []Divergence
	f     *wwForest // built lazily; only weak rungs and guarantees need it
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
// over the index's key-name table, each arc's Obj the KeyID of its key,
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
	b := graph.NewBuilderNames(ix.NumTxns(), ix.NumTxns()+2*rr.numWR(), ix.KeyNames())
	ix.History().SessionOrder(func(a, c int) {
		b.AddArc(graph.Arc{From: int32(a), To: int32(c), Obj: graph.NoObj, Kind: graph.SO})
	})
	divs, err := rr.emitDeps(ctx, b.AddArc)
	if err != nil {
		return nil, nil, err
	}
	return b, divs, nil
}

// CheckCtx is the batch checking pipeline of Section IV over a columnar
// index, and the one entry point for every level of the lattice: the
// INT/G1 pre-check and, beside it, one dependency derivation over the
// same index (precheckedDeps), then the rung for lvl (Deps.Rung), each
// in Θ(n) short of the CAUSAL rung's bit-parallel reachability. Graph
// construction and the rungs poll ctx, and the run returns the context's
// error instead of a verdict when the deadline fires. A level outside
// Lattice() (which may originate from an API request) is an error.
func CheckCtx(ctx context.Context, ix *history.Index, lvl Level) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if LatticeRank(lvl) < 0 {
		return Result{}, fmt.Errorf("core: unknown level %q", lvl)
	}
	as, d, err := precheckedDeps(ctx, ix)
	if len(as) > 0 {
		return Result{Level: lvl, Anomalies: as, NumTxns: ix.NumTxns()}, nil
	}
	if err != nil {
		return Result{}, err
	}
	phase.Lap(ctx, "search")
	return d.Rung(ctx, lvl)
}

// precheckedDeps runs the INT/G1 pre-check and the dependency derivation
// of CheckCtx and ProfileCtx side by side: the pre-check on a goroutine
// of its own, the derivation on the caller's, both only reading the one
// immutable index, and the goroutine joined before returning. When the
// pre-check finds anomalies they are the verdict, whatever the
// derivation returned: it is linear and robust to every anomaly, so it
// simply finishes. This is a fixed overlap of two coarse passes, not a
// concurrency knob. Its cost is two allocations: the closure, and the
// channel, unbuffered because a buffer of pointers is one more.
func precheckedDeps(ctx context.Context, ix *history.Index) ([]history.Anomaly, *Deps, error) {
	phase.Lap(ctx, "derive")
	pre := make(chan []history.Anomaly)
	go func() { pre <- history.CheckInternalIndexed(ix) }()
	d, err := BuildDependencyCtx(ctx, ix)
	return <-pre, d, err
}

// Rung decides one level of the lattice over the derivation; the
// pre-check is the caller's.
//
//   - RC, RA and CAUSAL are the weak rungs (weak.go): no G1c cycle, then
//     no fractured read, then no causal cycle.
//   - SER (Definition 5): SO ∪ WR ∪ WW ∪ RW is acyclic.
//   - SI (Definition 6): reject on any DIVERGENCE witness (Lemma 1),
//     otherwise the induced graph (SO ∪ WR ∪ WW) ; RW? is acyclic —
//     searched in place by graph.FindComposedCycle, never built.
//   - SSER (Definition 4): SER with the real-time order included
//     (checkSSER).
//
// Counterexample cycles are reported as plain dependency and RT edges,
// so they read like the paper's figures. NumEdges counts dependency
// edges at every level.
func (d *Deps) Rung(ctx context.Context, lvl Level) (Result, error) {
	switch lvl {
	case RC:
		return d.checkRC(), nil
	case RA:
		return d.checkRA(d.checkRC()), nil
	case CAUSAL:
		return d.checkCausal(ctx)
	case SSER:
		ser, err := d.Rung(ctx, SER)
		if err != nil {
			return Result{}, err
		}
		return d.checkSSER(ctx, ser)
	case SER, SI:
	default:
		return Result{}, fmt.Errorf("core: unknown level %q", lvl)
	}
	g := d.Graph
	res := Result{Level: lvl, NumTxns: d.Index.NumTxns(), NumEdges: g.NumEdges()}
	if lvl == SI && len(d.Divs) > 0 {
		div := d.Divs[0]
		res.Divergence = &div
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if lvl == SI {
		_, res.Cycle = g.FindComposedCycle()
	} else {
		res.Cycle = g.FindCycle()
	}
	res.OK = res.Cycle == nil
	return res, nil
}

// checkSSER is the SSER rung given the SER rung's verdict over the same
// derivation: a SER cycle survives the addition of real-time edges, so
// it is reused as the witness; on a SER-clean history Inversion decides
// the rest without materializing a real-time edge. ProfileCtx passes
// the SER rung it already has, so the cycle search is not repeated.
func (d *Deps) checkSSER(ctx context.Context, ser Result) (Result, error) {
	res := ser
	res.Level = SSER
	if ser.OK {
		phase.Lap(ctx, "inversion")
		var err error
		if res.Cycle, err = d.Inversion(ctx); err != nil {
			return Result{}, err
		}
		res.OK = res.Cycle == nil
	}
	return res, nil
}

// Inversion is the real-time half of the SSER rung. d.Graph must be
// acyclic (the SER rung passed). The dependency DAG plus the real-time
// order has a cycle iff some dependency path S ~> T is inverted in real
// time — T finished before S started: on any mixed cycle, the
// dependency path that ends at the RT source with the smallest finish
// starts at an RT target whose own RT source finished no earlier, so
// that path is inverted. One memoized post-order DFS computing each
// node's earliest-finishing descendant decides this in O(V+E) straight
// from the history.Txn stamps, with no sort, over three n-sized arrays
// and no real-time edge.
//
// It returns nil when the history is strictly serializable, else the
// witness: the dependency path S ~> T followed by the one real-time
// edge T -RT-> S that closes it. The DFS roots and edges are visited in
// index order and finishes are ordered by (Finish, id), so the witness
// is deterministic.
//
//mtc:hotpath — the SSER rung's DFS over the shared graph
func (d *Deps) Inversion(ctx context.Context) ([]graph.Edge, error) {
	g := d.Graph
	txns := d.Index.History().Txns
	// before reports whether timed transaction a finished before b in the
	// (Finish, id) order; b = -1 (no timed transaction) is last.
	before := func(a, b int32) bool {
		if b < 0 {
			return true
		}
		fa, fb := txns[a].Finish, txns[b].Finish
		return fa < fb || fa == fb && a < b
	}
	// mnf[u] is the first-finishing timed strict descendant of u (-1 when
	// none is timed) and via[u] the out-edge of u that leads to it; u is
	// inverted iff it is timed and mnf[u] finished before u started.
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
				m := int32(-1)
				for i, e := range g.Out(int(u)) {
					cm := mnf[e.To]
					if txns[e.To].Timed() && before(e.To, cm) {
						cm = e.To
					}
					if cm >= 0 && before(cm, m) {
						m, via[u] = cm, int32(i)
					}
				}
				mnf[u] = m
				state[u] = 2
				if t := &txns[u]; m >= 0 && t.Timed() && txns[m].Finish < t.Start {
					return inversionWitness(g, int(u), m, via), nil
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
					stack = append(stack, e.To)
				}
			}
		}
	}
	return nil, nil
}

// inversionWitness materializes the cycle Inversion found at s: follow
// the via arcs from s down to descendant m, rendering each, then close
// the path with m's real-time edge back to s.
func inversionWitness(g *graph.Graph, s int, m int32, via []int32) []graph.Edge {
	var cycle []graph.Edge
	for v := s; ; {
		a := g.Out(v)[via[v]]
		cycle = append(cycle, g.Edge(a))
		if v = int(a.To); a.To == m {
			return append(cycle, graph.Edge{From: v, To: s, Kind: graph.RT})
		}
	}
}
