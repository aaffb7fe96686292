// Package core implements the paper's primary contribution: the MTC
// verification algorithms for strong isolation levels over mini-transaction
// histories (Section IV).
//
//   - BuildDependencyCtx constructs the (nearly unique) dependency graph
//     of an MT history in O(n), exploiting the read-modify-write pattern
//     and unique values (Algorithm 1, with the Section IV-C optimization
//     that drops the WW transitive-closure step).
//   - CheckCtx is the one batch pipeline: pre-check, that derivation, then
//     the rung for the level (Deps.Rung). SER and SI are decided in Θ(n),
//     SI detecting the DIVERGENCE pattern early (Definition 10); SSER is
//     Θ(n²) by enumerating the real-time order, or O(n log n) with the
//     sparse time-chain encoding (an ablation the paper leaves implicit).
//   - CheckIncrementalWindowedCtx replays a history through the online
//     engine (Incremental) and CheckStreamCtx drives it from a stream.
//     Incremental holds two tables: one slot per version (key, value) —
//     its writer, readers and RMW overwriter — and one record per
//     transaction, indexed by its node in the online graph. Compact
//     collapses the settled prefix of that graph into summary edges,
//     copies the surviving transaction records and sweeps the slot
//     table in place: versions identify slots, so nothing is re-keyed.
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
	"sort"
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

// Options tunes a checker run.
type Options struct {
	// SkipPreCheck disables the CheckInternal pre-pass. Only use on
	// histories already known to satisfy INT and unique values.
	SkipPreCheck bool
	// SparseRT makes the SSER check encode the real-time order with a
	// sorted time chain (O(n log n)) instead of the paper's Θ(n²)
	// enumeration.
	SparseRT bool
	// Parallelism bounds the worker pool used by the parallel phases
	// (dense real-time enumeration, sparse-RT base copy). <= 0 selects
	// GOMAXPROCS; 1 forces the serial path. The constructed graph is
	// identical at every setting — node-sharded construction preserves
	// per-node edge order.
	Parallelism int
}

// Deps is the one dependency derivation of an indexed history that
// every rung is evaluated over: the typed graph SO ∪ WR ∪ WW ∪ RW (plus
// the dense real-time edges when built withRT) and the DIVERGENCE
// witnesses found while inferring WW edges. CheckCtx builds one per run;
// internal/levels builds one per profile and evaluates its SER, SI and
// SSER rungs through the same Rung code.
type Deps struct {
	Index *history.Index
	Graph *graph.Graph
	Divs  []Divergence
	// denseRT records that Graph already carries the Θ(n²) real-time
	// edges, so the SSER rung must not add the sparse chain on top.
	denseRT bool
}

// BuildDependency constructs the dependency graph of an MT history
// following the optimized Algorithm 1: WR edges are fixed by unique
// values, WW edges are inferred from WR when the reader also writes the
// object (the RMW pattern), and RW edges are derived from WR and WW. No
// WW transitive closure is computed (Theorems 1 and 2). When withRT is
// true the dense Θ(n²) real-time edges are added as well.
//
// The second return value lists every DIVERGENCE witness found while
// inferring WW edges; the SI rung uses it for its early exit, and the
// other rungs ignore it (Lemma 3 handles those cases through cycles).
func BuildDependency(h *history.History, withRT bool) (*graph.Graph, []Divergence) {
	d, _ := BuildDependencyCtx(context.Background(), history.NewIndex(h), withRT, 1)
	return d.Graph, d.Divs
}

// BuildDependencyCtx is BuildDependency over a prebuilt columnar index,
// polling ctx between batches of transactions (and real-time pairs) so
// construction of large graphs stops promptly under a deadline. The
// WR/WW/RW loops are the merge-join derivation of DeriveDeps (see
// derive.go); the graph it emits is edge-for-edge identical to the
// historical map-based builder. par bounds the worker pool of the dense
// real-time enumeration (<= 0 means GOMAXPROCS, 1 is serial); the
// constructed graph is identical at every setting.
func BuildDependencyCtx(ctx context.Context, ix *history.Index, withRT bool, par int) (*Deps, error) {
	h := ix.History()
	g := graph.New(len(h.Txns))

	if withRT {
		if err := addDenseRT(ctx, h, g, par); err != nil {
			return nil, err
		}
	}
	h.SessionOrder(func(a, b int) {
		g.AddEdge(graph.Edge{From: a, To: b, Kind: graph.SO})
	})
	divs, err := deriveDeps(ctx, ix, g.AddEdge)
	if err != nil {
		return nil, err
	}
	return &Deps{Index: ix, Graph: g, Divs: divs, denseRT: withRT}, nil
}

// addDenseRT adds the paper's Θ(n²) real-time edges to g, sharding the
// enumeration by source transaction over a bounded worker pool
// (graph.ParallelDo). Every source's batch lands in its own adjacency
// slice through AddEdgesFrom, and the inner target loop scans in index
// order, so the per-node edge order — and hence every downstream cycle
// search — matches history.RealTimeOrder's serial enumeration exactly at
// any parallelism. Cancellation leaves g partially built; the caller
// discards it.
func addDenseRT(ctx context.Context, h *history.History, g *graph.Graph, par int) error {
	n := len(h.Txns)
	// Snapshot the per-transaction eligibility once so the n² inner loop
	// reads a compact contiguous array instead of chasing Txn structs.
	type rtMeta struct {
		start, finish int64
		committed     bool
	}
	meta := make([]rtMeta, n)
	for i := range h.Txns {
		t := &h.Txns[i]
		meta[i] = rtMeta{start: t.Start, finish: t.Finish, committed: t.Committed}
	}
	return graph.ParallelDo(ctx, par, n, func(i int) {
		a := meta[i]
		if !a.committed || a.finish == 0 {
			return
		}
		var batch []graph.Edge
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			b := meta[j]
			if !b.committed || b.start == 0 {
				continue
			}
			if a.finish < b.start {
				batch = append(batch, graph.Edge{From: i, To: j, Kind: graph.RT})
			}
		}
		g.AddEdgesFrom(i, batch)
	})
}

// CheckCtx is the batch checking pipeline of Section IV over a columnar
// index: the INT/G1 pre-check (unless opts.SkipPreCheck), one
// dependency derivation over the same index, and the rung for lvl. It
// decides SER and SI in Θ(n) and SSER in Θ(n²) with the paper's dense
// real-time enumeration or O((n+m) log n) with opts.SparseRT. Graph
// construction and the real-time phases poll ctx, and the run returns
// the context's error instead of a verdict when the deadline fires. RC, RA and CAUSAL are valid Level values without a
// batch engine here — internal/levels evaluates them over the same
// derivation — so they, like any unknown level (which may originate from
// an API request), are reported as an error.
func CheckCtx(ctx context.Context, ix *history.Index, lvl Level, opts Options) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	switch lvl {
	case SSER, SER, SI:
	default:
		return Result{}, fmt.Errorf("core: no batch engine for level %q", lvl)
	}
	if !opts.SkipPreCheck {
		if as := history.CheckInternalIndexed(ix); len(as) > 0 {
			return Result{Level: lvl, Anomalies: as, NumTxns: ix.NumTxns()}, nil
		}
	}
	d, err := BuildDependencyCtx(ctx, ix, lvl == SSER && !opts.SparseRT, opts.Parallelism)
	if err != nil {
		return Result{}, err
	}
	return d.Rung(ctx, lvl, opts.Parallelism)
}

// Rung decides one strong level over the derivation; the pre-check is
// the caller's.
//
//   - SER (Definition 5): SO ∪ WR ∪ WW ∪ RW is acyclic.
//   - SI (Definition 6): reject on any DIVERGENCE witness (Lemma 1),
//     otherwise the induced graph (SO ∪ WR ∪ WW) ; RW? is acyclic.
//   - SSER (Definition 4): like SER with the real-time order included —
//     the dense edges when the derivation was built withRT, else the
//     sparse time chain is added here over par workers.
//
// Counterexample cycles are rewritten into plain dependency and RT
// edges, so they read like the paper's figures under every encoding.
func (d *Deps) Rung(ctx context.Context, lvl Level, par int) (Result, error) {
	g := d.Graph
	res := Result{Level: lvl, NumTxns: d.Index.NumTxns(), NumEdges: g.NumEdges()}
	rewrite := func(cycle []graph.Edge) []graph.Edge { return cycle }
	switch lvl {
	case SER:
	case SI:
		if len(d.Divs) > 0 {
			div := d.Divs[0]
			res.Divergence = &div
			return res, nil
		}
		gi, expand := induceSI(g)
		g = gi
		rewrite = func(cycle []graph.Edge) []graph.Edge { return expandComposed(cycle, expand) }
	case SSER:
		if !d.denseRT {
			var err error
			if g, err = addSparseRT(ctx, d.Index.History(), g, par); err != nil {
				return Result{}, err
			}
			res.NumEdges = g.NumEdges() // the chain's edges count, like the dense RT edges do
		}
		rewrite = compressAux
	default:
		return Result{}, fmt.Errorf("core: no batch engine for level %q", lvl)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if cycle := g.FindCycle(); cycle != nil {
		res.Cycle = rewrite(cycle)
		return res, nil
	}
	res.OK = true
	return res, nil
}

// RTOrder returns each transaction's start and finish positions in the
// sorted real-time event sequence (the sparse chain's node order), or
// -1 for aborted or untimed transactions. Two timed transactions T, S
// satisfy finish(T) <rt start(S) — i.e. T really finished before S
// started — iff finish[T] < start[S]: the chain's tie-breaking (starts
// sort before finishes at equal timestamps) is baked into the ranks, so
// callers can decide real-time precedence without building the chain.
func RTOrder(h *history.History) (start, finish []int) {
	events := rtEvents(h)
	start = make([]int, len(h.Txns))
	finish = make([]int, len(h.Txns))
	for i := range start {
		start[i], finish[i] = -1, -1
	}
	for i, ev := range events {
		if ev.isStart {
			start[ev.txn] = i
		} else {
			finish[ev.txn] = i
		}
	}
	return start, finish
}

// composedKey identifies a composed edge for counterexample expansion.
type composedKey struct{ from, to int }

// induceSI builds G' = (V, (SO ∪ WR ∪ WW) ; RW?) from the dependency
// graph. It returns the induced graph and a witness map that expands each
// composed edge back into its base and RW constituents for reporting.
func induceSI(g *graph.Graph) (*graph.Graph, map[composedKey][]graph.Edge) {
	gi := graph.New(g.Len())
	expand := make(map[composedKey][]graph.Edge)
	for u := 0; u < g.Len(); u++ {
		for _, e := range g.Out(u) {
			if e.Kind == graph.RW {
				continue
			}
			// Identity part of RW?: keep the base edge itself.
			gi.AddEdge(e)
			// Composition part: base ; RW.
			for _, rw := range g.Out(e.To) {
				if rw.Kind != graph.RW {
					continue
				}
				ck := composedKey{from: u, to: rw.To}
				if _, dup := expand[ck]; !dup {
					expand[ck] = []graph.Edge{e, rw}
				}
				gi.AddEdge(graph.Edge{From: u, To: rw.To, Kind: graph.AUX, Obj: "(;RW)"})
			}
		}
	}
	return gi, expand
}

// expandComposed rewrites a cycle of G' into the underlying dependency
// edges so that counterexamples read like the paper's figures.
func expandComposed(cycle []graph.Edge, expand map[composedKey][]graph.Edge) []graph.Edge {
	var out []graph.Edge
	for _, e := range cycle {
		if e.Kind == graph.AUX {
			if w, ok := expand[composedKey{e.From, e.To}]; ok {
				out = append(out, w...)
				continue
			}
		}
		out = append(out, e)
	}
	return out
}

// addSparseRT adds an O(n log n) encoding of the real-time order to the
// base dependency graph: a time chain of start/finish events with AUX
// edges T -> finish(T) and start(S) -> S, so that a path T ~> S through
// the chain exists iff finish(T) < start(S). The returned graph has
// 2n extra nodes; transaction nodes keep their IDs. The base-edge copy is
// sharded by source node over par workers (the chain edges stay serial —
// they are O(n) and ordered); the copy polls ctx, so a cancelled SSER
// run stops copying.
func addSparseRT(ctx context.Context, h *history.History, base *graph.Graph, par int) (*graph.Graph, error) {
	events := rtEvents(h)
	n := base.Len()
	g := graph.New(n + len(events))
	err := graph.ParallelDo(ctx, par, n, func(u int) {
		g.AddEdgesFrom(u, base.Out(u))
	})
	if err != nil {
		return nil, err
	}
	appendRTChain(g, n, events)
	return g, nil
}

// rtEvent is one endpoint of a committed transaction's real-time span.
type rtEvent struct {
	time    int64
	isStart bool
	txn     int
}

// rtEvents collects the start/finish events of every committed timed
// transaction, sorted by time. Starts sort before finishes at equal
// timestamps so that finish(T) == start(S) does NOT yield an RT path
// (RT is strict).
func rtEvents(h *history.History) []rtEvent {
	events := make([]rtEvent, 0, 2*len(h.Txns))
	for i := range h.Txns {
		t := &h.Txns[i]
		if !t.Committed || t.Start == 0 && t.Finish == 0 {
			continue
		}
		events = append(events, rtEvent{time: t.Start, isStart: true, txn: i})
		events = append(events, rtEvent{time: t.Finish, isStart: false, txn: i})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].time != events[j].time {
			return events[i].time < events[j].time
		}
		return events[i].isStart && !events[j].isStart
	})
	return events
}

// appendRTChain wires the sorted events into g as a time chain rooted at
// node offset: each event links to the next, finishes hang their
// transaction onto the chain, starts hang the chain onto the
// transaction, so a path T ~> S through the chain exists iff
// finish(T) < start(S).
func appendRTChain(g *graph.Graph, offset int, events []rtEvent) {
	for i, ev := range events {
		node := offset + i
		if i+1 < len(events) {
			g.AddEdge(graph.Edge{From: node, To: node + 1, Kind: graph.AUX})
		}
		if ev.isStart {
			g.AddEdge(graph.Edge{From: node, To: ev.txn, Kind: graph.AUX, Obj: "start"})
		} else {
			g.AddEdge(graph.Edge{From: ev.txn, To: node, Kind: graph.AUX, Obj: "finish"})
		}
	}
}

// compressAux rewrites a cycle that may traverse the sparse time chain,
// collapsing every AUX run T -> finish ... start -> S into a single RT
// edge so counterexamples stay readable.
func compressAux(cycle []graph.Edge) []graph.Edge {
	var out []graph.Edge
	i := 0
	for i < len(cycle) {
		e := cycle[i]
		if e.Kind != graph.AUX {
			out = append(out, e)
			i++
			continue
		}
		// e enters the chain from transaction e.From; scan to the exit.
		from := e.From
		j := i
		for j < len(cycle) && cycle[j].Kind == graph.AUX {
			j++
		}
		// cycle[j-1] leaves the chain into a transaction node.
		to := cycle[j-1].To
		out = append(out, graph.Edge{From: from, To: to, Kind: graph.RT})
		i = j
	}
	return out
}
