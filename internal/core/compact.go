package core

import (
	"math/bits"

	"mtc/internal/graph"
)

// epochObj labels the AUX summary edges Compact leaves between kept nodes.
const epochObj = "epoch"

// How much of a node survives a compaction, each tier including the ones
// below it.
const (
	tierNone uint8 = iota // collapsed
	tierNode              // still a node of the graph (SI composition endpoints)
	tierFull              // ... with its transaction record and slot membership
	tierBase              // ... and the values it wrote stay readable: recent or pinned
)

// compactScratch is Compact's working memory. It lives on the
// Incremental because a windowed stream compacts every half-window at
// roughly the same size: the buffers are sized once and reused, where
// fresh ones would be most of what an epoch allocates.
type compactScratch struct {
	tier  []uint8
	order []int
	remap []int
	bits  []uint64     // arena of graph.Bitset rows
	edges []graph.Edge // edges of the rebuilt graph
}

// resize returns s with length n, reallocating only to grow — with
// headroom, since the live set drifts by a few nodes from one epoch to the
// next. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// Compact collapses the settled prefix of the stream — every transaction
// whose external position is below frontier and whose state can no
// longer influence a future verdict — into a set of summary edges, and
// frees the graph nodes, dependency edges, transaction records and
// version slots behind it. A windowed stream that calls Compact
// periodically therefore holds O(window + boundary) state — nodes and
// edges — instead of O(history).
//
// What survives a compaction, regardless of frontier:
//
//   - transactions at or beyond frontier, and everything pin reports
//     true for (pin receives external stream positions; nil pins
//     nothing) — the replay driver in CheckIncrementalWindowed pins
//     exactly the transactions the rest of the history still references,
//     which makes windowed verdicts provably identical to unbounded ones;
//   - the initial transaction and each session's latest transaction
//     (sources of future SO edges);
//   - parked readers still waiting for their writer;
//   - every slot — a writer, its readers and its RMW overwriter — whose
//     values remain readable: the writer is recent or pinned, it wrote a
//     key's current latest value, or the slot was referenced within the
//     window. Future reads resolve against exactly this retained state.
//
// Everything else is provably settled under the epoch contract: no
// future transaction reads a value written behind the frontier or
// write-conflicts with a collapsed slot. Live streams establish the
// contract exactly by declaring their sessions with ExpectSession:
// Compact then additionally pins every slot dethroned at or after the
// staleness horizon, so no in-flight read can lose its writer no
// matter how the scheduler interleaves sessions with the checker.
// Replay drivers instead pin future references explicitly (see
// CheckIncrementalWindowed). A contract-violating stale read parks
// forever and is classified ThinAirRead at Finalize rather than
// silently mis-verified.
//
// What replaces the collapsed region is the transitive reduction of the
// reachability it carried. The retained nodes are renumbered in the
// online order — itself the witness that the settled prefix is acyclic —
// and one reverse sweep over that order computes, per node, a
// graph.Bitset row of the retained nodes it reaches (the graph.Closure
// recipe, rows cut from one arena). A retained node keeps its dependency
// edges to retained nodes verbatim; of what it reaches through collapsed
// nodes, and of the summary edges earlier compactions left at it, it
// keeps an AUX "epoch" edge only to the targets no other kept edge
// already leads to. Reachability among retained nodes is preserved pair
// for pair, so cycle detection over the remaining stream is unchanged,
// and the summary edges stay proportional to the retained nodes however
// many epochs lie behind them. The rebuilt graph is loaded in one step
// (graph.Online.Reload); the rebuild panics if an edge would descend
// in the new numbering, which only a cycle in the settled prefix or
// through the collapsed region could cause. The working memory is O(n²/64)
// words for n live nodes and is reused from one compaction to the next.
//
// What survives is copied, not kept in place: the rebuilt graph is
// loaded into the spare graph, the kept transaction records — write sets
// and SI lists included — and the live slots with their lists go into the
// spare slabs with every node id renumbered on the way, the slot table
// and latest are re-pointed at the copies, and the two arena sets trade
// places (see arenas). The graph and records of the epoch just ended stay
// readable until the next compaction loads over them.
//
// MaybeCompact is the standard compaction cadence every windowed driver
// (the batch replay, runner.RunStream, server sessions, benchmarks)
// shares: once the stream has outgrown the window and at least every
// transactions arrived since the last compaction (0 picks window/2), it
// runs Compact(NumTxns()-window, pin). It reports whether a compaction
// ran. window <= 0 disables compaction entirely.
func (inc *Incremental) MaybeCompact(window, every int, pin func(ext int) bool) bool {
	if window <= 0 {
		return false
	}
	if every <= 0 {
		every = window / 2
	}
	if every < 1 {
		every = 1
	}
	if inc.n <= window || inc.n-inc.lastCompactAt < every {
		return false
	}
	inc.Compact(inc.n-window, pin)
	inc.lastCompactAt = inc.n
	return true
}

// Compact is a no-op after a violation. It is not safe for concurrent
// use (same discipline as Add).
func (inc *Incremental) Compact(frontier int, pin func(ext int) bool) {
	nNodes := inc.topo.Len()
	if inc.vio != nil || nNodes == 0 {
		return
	}
	if frontier > inc.n {
		frontier = inc.n
	}
	if frontier <= 0 {
		return
	}

	// tier[x] is how much of node x survives; see the tier constants.
	sc := &inc.scratch
	sc.tier = resize(sc.tier, nNodes)
	tier := sc.tier
	clear(tier)
	for i := range inc.txns {
		if e := inc.txns[i].ext; e >= frontier || (pin != nil && pin(e)) {
			tier[i] = tierBase
		}
	}
	// alive: the slot's committed write still accepts future readers or
	// an overwriter, so its participants survive. With session tracking on,
	// a slot dethroned at or after the staleness horizon — the minimum
	// last-ingested position across active sessions — is also alive: a
	// transaction in flight on some session started before the
	// dethronement reached that session's stream and may still
	// legitimately read the slot's value.
	horizon, track := 0, false
	//mtc:nondeterministic-ok minimum fold; min is commutative
	for _, ss := range inc.sessions {
		if ss.active && (!track || ss.seen < horizon) {
			horizon, track = ss.seen, true
		}
	}
	alive := func(key version, s *slot) bool {
		if tier[s.writer] == tierBase {
			return true
		}
		// A value its writer later overwrote itself lives exactly as long
		// as the final one: reads of it must keep failing as
		// IntermediateRead, not park.
		if final, _ := inc.txns[s.writer].writes.get(key.k); final != key.v {
			s = inc.slots[version{key.k, final}]
		}
		// Still its key's latest, read within the window, or dethroned
		// within the horizon.
		return s.dethroned == 0 || s.ref >= frontier || (track && s.dethroned >= horizon)
	}

	keepFull := func(x int) { tier[x] = max(tier[x], tierFull) }
	if inc.initID >= 0 {
		keepFull(inc.initID)
	}
	//mtc:nondeterministic-ok raising tiers; max is commutative
	for _, ss := range inc.sessions {
		if ss.last >= 0 {
			keepFull(ss.last)
		}
	}
	// Mark phase over the slot table: parked readers still wait for their
	// writer; an alive slot keeps its writer (which anchors future WR
	// edges even before anyone read it), its readers and its overwriter.
	//mtc:nondeterministic-ok raising tiers; max is commutative
	for key, s := range inc.slots {
		for r := range each(&inc.ids, s.parked) {
			keepFull(r)
		}
		s.live = s.writer >= 0 && alive(key, s)
		if !s.live {
			continue
		}
		keepFull(s.writer)
		for r := range each(&inc.ids, s.readers) {
			keepFull(r)
		}
		if s.over >= 0 {
			keepFull(s.over)
		}
	}
	// Under SI a future RW edge out of a kept reader r composes with r's
	// baseIn, and a future base edge into r composes with r's rwOut; the
	// far endpoints of those compositions must still exist as nodes (one
	// hop only — old nodes never gain new base in-edges, and new RW
	// sources are always slot members, which are kept in full).
	if inc.lvl == SI {
		for i := range inc.txns {
			if tier[i] < tierFull {
				continue
			}
			for b := range each(&inc.deps, inc.txns[i].baseIn) {
				tier[b.From] = max(tier[b.From], tierNode)
			}
			for rw := range each(&inc.deps, inc.txns[i].rwOut) {
				tier[rw.To] = max(tier[rw.To], tierNode)
			}
		}
	}
	kcount := 0
	for _, t := range tier {
		if t != tierNone {
			kcount++
		}
	}
	collapsed := nNodes - kcount
	if collapsed == 0 {
		return
	}

	// Generational rebuild. Kept nodes are renumbered in the current
	// topological order, so every surviving edge ascends and the
	// Pearce–Kelly structure starts compact again. remap[x] is the new id
	// of a kept node and ^rank of a collapsed one, rank counting collapsed
	// nodes in the same order.
	sc.order = resize(sc.order, nNodes) // order index -> node: ord is a permutation
	order := sc.order
	for i := range order {
		order[inc.topo.Ord(i)] = i
	}
	sc.remap = resize(sc.remap, nNodes)
	remap := sc.remap
	nk, nc := 0, 0
	for _, x := range order {
		if tier[x] != tierNone {
			remap[x] = nk
			nk++
		} else {
			remap[x] = ^nc
			nc++
		}
	}

	// One bitset row over the kept ids per old node, cut from one arena:
	// for a kept node everything it reaches among kept nodes, for a
	// collapsed node the kept nodes it reaches through collapsed-only
	// paths, so row(remap[e.To]) is what an edge e contributes beyond its
	// own head. The sweep below runs in reverse topological order; the
	// online order guarantees ord(From) < ord(To) for every edge, so each
	// successor's row is final before a predecessor reads it — the
	// level-by-level argument of graph.Closure, and the proof the settled
	// prefix is acyclic.
	words := (kcount + 63) / 64
	sc.bits = resize(sc.bits, (nNodes+1)*words)
	clear(sc.bits)
	row := func(id int) graph.Bitset {
		if id < 0 {
			id = kcount + ^id
		}
		return graph.Bitset(sc.bits[id*words : (id+1)*words])
	}
	cand := graph.Bitset(sc.bits[nNodes*words:])
	rebuilt := sc.edges[:0]
	for i := nNodes - 1; i >= 0; i-- {
		x := order[i]
		nx := remap[x]
		if nx < 0 {
			reach := row(nx)
			for _, e := range inc.topo.Out(x) {
				if t := remap[e.To]; t >= 0 {
					reach.Set(t)
				} else {
					reach.UnionWith(row(t))
				}
			}
			continue
		}
		// Dependency edges survive verbatim and seed covered, the set nx
		// reaches without any summary edge. What nx reaches through the
		// collapsed region, and the summary edges earlier compactions left
		// at it, are only candidates.
		covered := row(nx)
		cand.Clear()
		for _, e := range inc.topo.Out(x) {
			t := remap[e.To]
			switch {
			case t < 0:
				cand.UnionWith(row(t))
			case e.Kind == graph.AUX && e.Obj == epochObj:
				cand.Set(t)
			default:
				if t <= nx {
					panic("core: Compact rebuilt a cyclic graph; settled prefix was not acyclic-closed")
				}
				rebuilt = append(rebuilt, graph.Edge{From: nx, To: t, Kind: e.Kind, Obj: e.Obj})
				covered.Set(t)
				covered.UnionWith(row(t))
			}
		}
		// Ascending ids are topological: a candidate can only be implied by
		// a dependency edge or a smaller candidate, both already in covered
		// when it is reached. What is emitted is therefore the transitive
		// reduction of the candidates, and covered ends as their closure.
		for k := range cand {
			for w := cand[k] &^ covered[k]; w != 0; w = cand[k] &^ covered[k] {
				b := k<<6 + bits.TrailingZeros64(w)
				if b <= nx {
					panic("core: Compact found a cycle through the collapsed region")
				}
				rebuilt = append(rebuilt, graph.Edge{From: nx, To: b, Kind: graph.AUX, Obj: epochObj})
				covered.Set(b)
				covered.UnionWith(row(b))
			}
		}
	}
	sc.edges = rebuilt
	if inc.spare.topo == nil {
		inc.spare = newArenas(inc.lvl)
	}
	next := &inc.spare
	next.topo.Reload(kcount, rebuilt)

	// Copy what survives into the spare set, renumbering on the way.
	reIDs := func(ids list) (out list) {
		for id := range each(&inc.ids, ids) {
			push(&next.ids, &out, remap[id])
		}
		return out
	}
	reEdges := func(edges list) (out list) {
		for e := range each(&inc.deps, edges) {
			e.From, e.To = remap[e.From], remap[e.To]
			push(&next.deps, &out, e)
		}
		return out
	}
	next.txns = resize(next.txns, kcount)
	for x, nx := range remap {
		if nx < 0 {
			continue
		}
		t := txnState{ext: inc.txns[x].ext} // all that is left of a node kept only as one
		if tier[x] >= tierFull {
			if ws := inc.txns[x].writes; len(ws) > 0 {
				t.writes = next.writes.Cut(len(ws))
				copy(t.writes, ws)
			}
			t.baseIn, t.rwOut = reEdges(inc.txns[x].baseIn), reEdges(inc.txns[x].rwOut)
		}
		next.txns[nx] = t
	}
	// The slot table's keys are versions, which a compaction cannot
	// change: dead slots are deleted, live ones move to the spare slab with
	// the node ids inside them rewritten, and nothing is re-keyed.
	//mtc:nondeterministic-ok slot-for-slot sweep; no order reaches the result
	for key, s := range inc.slots {
		ns := slot{writer: -1, aborted: -1, over: -1, parked: reIDs(s.parked)}
		if s.live {
			ns.writer, ns.readers = remap[s.writer], reIDs(s.readers)
			if s.over >= 0 {
				ns.over = remap[s.over]
			}
			ns.ref, ns.dethroned = s.ref, s.dethroned
		} // else the committed write is settled; a later read of it parks
		if s.aborted >= 0 && tier[s.aborted] == tierBase {
			ns.aborted = remap[s.aborted]
		}
		if ns.writer < 0 && ns.aborted < 0 && ns.parked.head == 0 {
			delete(inc.slots, key)
			continue
		}
		id, moved := next.records.Alloc()
		*moved = ns
		s.fwd = id
		inc.slots[key] = moved
	}
	// A key's latest write is always live.
	//mtc:nondeterministic-ok entry-for-entry rewrite; no order reaches the result
	for k, s := range inc.latest {
		inc.latest[k] = next.records.At(s.fwd)
	}
	if inc.initID >= 0 {
		inc.initID = remap[inc.initID]
	}
	//mtc:nondeterministic-ok record-for-record rewrite; no order reaches the result
	for _, ss := range inc.sessions {
		if ss.last >= 0 {
			ss.last = remap[ss.last]
		}
	}
	clear(next.witness)
	//mtc:nondeterministic-ok key-for-key map rebuild; no order reaches the result
	for ck, w := range inc.witness {
		// The witness threads through an intermediate node; keep the
		// expansion only while all three survive (a composed edge whose
		// witness was collapsed still reports, just unexpanded).
		if remap[ck.from] < 0 || remap[ck.to] < 0 || remap[w[0].To] < 0 {
			continue
		}
		for i := range w {
			w[i].From, w[i].To = remap[w[i].From], remap[w[i].To]
		}
		next.witness[composedKey{from: remap[ck.from], to: remap[ck.to]}] = w
	}

	inc.arenas, inc.spare = inc.spare, inc.arenas
	inc.spare.reset()
	inc.live = len(rebuilt)
	inc.compactTxns += collapsed
	inc.compactEpoch++
}
