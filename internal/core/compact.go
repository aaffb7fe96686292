package core

import (
	"math/bits"

	"mtc/internal/graph"
)

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
	remap []int32
	rows  []span   // per node: its row of bits and its column
	cols  []int32  // column -> node
	bits  []uint64 // the rows, in the order the sweep opens them, then the candidate row
	// heads[x]: a summary edge leads to node x of the current graph. Only
	// Compact emits them, so it is the one that knows; a node added since
	// has none.
	heads []bool
}

// span places a node in the reachability sweep: its row is
// bits[off:off+n], off -1 until the sweep opens it, and col is its
// column, -1 for a node that is never a candidate.
type span struct{ off, n, col int32 }

// resize returns s with length n, reallocating only to grow — to at
// least twice what it held, so a session that is still finding its size
// regrows a few times, not every epoch. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n+n/4, 2*cap(s)))
	}
	return s[:n]
}

func isEpoch(a graph.Arc) bool { return a.Kind == graph.AUX && a.Obj == epochObj }

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
// and one reverse sweep over that order (reduce) computes, per node, a
// graph.Bitset row of what it reaches (the graph.Closure recipe, rows cut
// from one arena). A retained node keeps its dependency edges to retained
// nodes verbatim; of what it reaches through collapsed nodes, and of the
// summary edges earlier compactions left at it, it keeps an AUX "epoch"
// edge only to the targets no other kept edge already leads to.
// Reachability among retained nodes is preserved pair for pair, so cycle
// detection over the remaining stream is unchanged, and the summary edges
// stay proportional to the retained nodes however many epochs lie behind
// them. The sweep loads each edge into the spare graph as it settles on it
// (graph.Online.Reload, then Load); it panics on an edge that descends in
// the order, which only a cycle in the settled prefix or through the
// collapsed region could cause.
//
// The arena is compressed and triangular. Its columns are only the nodes a
// summary edge can lead to — the heads of the ones standing, which the
// compaction that emitted them remembered, and the kept heads of edges out
// of collapsed nodes, read off those nodes' out lists — because no other
// bit is ever tested; and a row holds only the columns behind its node in
// the order, because it reaches nothing else. On a 2000-key Zipf stream
// that is an eighth of the nodes-by-kept-nodes rectangle (under half the
// kept nodes are columns, and they are old: the window's worth of nodes at
// the end of the order has next to none behind it); each row is cleared as
// the sweep opens it, and the memory is reused from one compaction to the
// next.
//
// Transaction state is copied, slot records are kept in place: the kept
// transaction records — write sets and SI lists included — go into the
// spare slabs with every node id renumbered on the way, and the two arena
// sets trade places (see arenas). Slot records never move, so the version
// table and latest hear of a compaction only through the deletion of the
// slots that died in it: two walks over the record slab, one before the
// new ids exist to mark who survives (markSlots) and one after to rewrite
// the ids and move the survivors' lists (sweepSlots). The graph and
// transaction records of the epoch just ended stay readable until the
// next compaction loads over them.
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
		every = max(window/2, 1)
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
	if frontier = min(frontier, inc.n); inc.vio != nil || nNodes == 0 || frontier <= 0 {
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
	inc.markSlots(frontier)
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
			for _, b := range each(&inc.deps, inc.txns[i].baseIn) {
				tier[b.From] = max(tier[b.From], tierNode)
			}
			for _, rw := range each(&inc.deps, inc.txns[i].rwOut) {
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

	// The columns of the sweep: the kept nodes a summary edge can lead to —
	// where one leads now, and where an edge out of a collapsed node does.
	sc.rows = resize(sc.rows, nNodes)
	rows := sc.rows
	for x := range rows {
		rows[x] = span{off: -1, col: -1}
	}
	ncols := 0
	column := func(x int) {
		if tier[x] != tierNone && rows[x].col < 0 {
			rows[x].col = 0 // the sweep numbers it
			ncols++
		}
	}
	for x, head := range sc.heads {
		if head {
			column(x)
		}
	}
	for x, t := range tier {
		if t == tierNone {
			for _, e := range inc.topo.Out(x) {
				column(int(e.To))
			}
		}
	}

	// Generational rebuild. Kept nodes are renumbered in the current
	// topological order, so every surviving edge ascends and the
	// Pearce–Kelly structure starts compact again. remap[x] is the new id
	// of a kept node and -1 for a collapsed one. A node's row holds the
	// columns behind it in that order, 64 to a word.
	sc.order = resize(sc.order, nNodes) // order index -> node: ord is a permutation
	order := sc.order
	for i := range order {
		order[inc.topo.Ord(i)] = i
	}
	sc.remap = resize(sc.remap, nNodes)
	remap := sc.remap
	nk, behind, words := 0, ncols, 0
	for _, x := range order {
		remap[x] = -1
		if tier[x] != tierNone {
			remap[x] = int32(nk)
			nk++
			if rows[x].col >= 0 {
				behind--
			}
		}
		words += (behind + 63) / 64
	}
	sc.bits = resize(sc.bits, words+(ncols+63)/64)
	sc.cols = resize(sc.cols, ncols)[:0]
	sc.heads = resize(sc.heads, kcount)
	clear(sc.heads)

	if inc.spare.topo == nil {
		inc.spare = newArenas()
	}
	next := &inc.spare
	next.topo.Reload(kcount)
	live := inc.reduce(next.topo, words)

	// Copy what survives into the spare set, renumbering on the way.
	next.mark = 0
	reEdges := func(edges list) (out list) {
		for _, e := range each(&inc.deps, edges) {
			e.From, e.To = remap[e.From], remap[e.To]
			push(&next.deps, &out, e)
		}
		next.mark = max(next.mark, out.tail)
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
	inc.sweepSlots(next)
	if inc.initID >= 0 {
		inc.initID = int(remap[inc.initID])
	}
	//mtc:nondeterministic-ok record-for-record rewrite; no order reaches the result
	for _, ss := range inc.sessions {
		if ss.last >= 0 {
			ss.last = int(remap[ss.last])
		}
	}
	if inc.lvl == SI {
		inc.carryWitnesses(next)
	}

	inc.arenas, inc.spare = inc.spare, inc.arenas
	inc.spare.reset()
	inc.live = live
	inc.compactTxns += collapsed
	inc.compactEpoch++
}

// carryWitnesses fills next.witness with the first pair that composed each
// edge between kept nodes: the current map's, then this epoch's in the
// order they composed — by the cell whose push composed them, then partner
// list order (see composeWitness). A first pair whose mid is collapsed
// leaves noWitness: only a later composition counts.
//
//mtc:hotpath — per pair this epoch composed; the map keeps its room from one compaction to the next
func (inc *Incremental) carryWitnesses(next *arenas) {
	remap := inc.scratch.remap
	if next.witness == nil {
		next.witness = make(map[composedKey][2]graph.Arc) //mtc:alloc-ok once per arena set
	}
	clear(next.witness)
	put := func(b, r graph.Arc) {
		ck := composedKey{remap[b.From], remap[r.To]}
		if _, seen := next.witness[ck]; seen || ck.from < 0 || ck.to < 0 {
			return
		}
		w := noWitness
		if m := remap[b.To]; m >= 0 {
			b.From, b.To, r.From, r.To = ck.from, m, m, ck.to
			w = [2]graph.Arc{b, r}
		}
		next.witness[ck] = w
	}
	//mtc:nondeterministic-ok one entry per key, keys distinct; no order reaches the result
	for _, w := range inc.witness {
		if w != noWitness {
			put(w[0], w[1])
		}
	}
	for id, c := range inc.deps.All() {
		e, partners := c.v, inc.txns[c.v.To].rwOut
		if e.Kind == graph.RW {
			partners = inc.txns[e.From].baseIn
		}
		for pid, p := range each(&inc.deps, partners) {
			if id <= inc.mark || pid > id {
				break
			} else if e.Kind == graph.RW {
				put(p, e)
			} else {
				put(e, p)
			}
		}
	}
}

// markSlots is Compact's mark phase, one walk over the slot records:
// parked readers still wait for their writer; a slot whose committed
// write still accepts future readers or an overwriter keeps its writer
// (which anchors future WR edges even before anyone read it), its readers
// and its overwriter. With session tracking on, a slot dethroned at or
// after the staleness horizon — the minimum last-ingested position across
// active sessions — is readable too: a transaction in flight on some
// session started before the dethronement reached that session's stream
// and may still legitimately read the slot's value.
//
//mtc:hotpath — per slot and per list cell
func (inc *Incremental) markSlots(frontier int) {
	horizon, track := 0, false
	//mtc:nondeterministic-ok minimum fold; min is commutative
	for _, ss := range inc.sessions {
		if ss.active && (!track || ss.seen < horizon) {
			horizon, track = ss.seen, true
		}
	}
	tier := inc.scratch.tier
	for _, s := range inc.records.All() {
		if s.free {
			continue
		}
		for _, r := range each(&inc.ids, s.parked) {
			tier[r] = max(tier[r], tierFull)
		}
		// Readable: its writer is recent or pinned, or the value is still its
		// key's latest, was read within the window, or was dethroned within
		// the horizon — the value being, for one its writer later overwrote
		// itself, the final one, whose fate it shares.
		f := s
		for f.final != 0 {
			f = inc.records.At(f.final)
		}
		s.live = s.writer >= 0 && (tier[s.writer] == tierBase ||
			f.dethroned == 0 || f.ref >= frontier || (track && f.dethroned >= horizon))
		if !s.live {
			continue
		}
		tier[s.writer] = max(tier[s.writer], tierFull)
		for _, r := range each(&inc.ids, s.readers) {
			tier[r] = max(tier[r], tierFull)
		}
		if s.over >= 0 {
			tier[s.over] = max(tier[s.over], tierFull)
		}
	}
}

// reduce is Compact's reachability sweep: it loads into next, edge by
// edge, the dependency edges among kept nodes and the transitive
// reduction of what they reach through the collapsed region, and returns
// how many edges that is. It runs in reverse topological order; the
// online order guarantees ord(From) < ord(To) for every edge, so each
// successor's row is final before a predecessor reads it — the
// level-by-level argument of graph.Closure, and the proof the settled
// prefix is acyclic: an edge that descends finds its head's row unopened.
//
// A row is opened when the sweep reaches its node and holds the columns
// opened before it, numbered as they were opened — the later in the order,
// the lower — so it is a prefix of every row after it and a union runs
// over the shorter of the two. For a kept node it ends as every column the
// node reaches, for a collapsed node as the columns it reaches through
// collapsed-only paths: what an edge contributes beyond its own head.
//
//mtc:hotpath — per node and per edge of the live graph; rows come from the scratch arena
func (inc *Incremental) reduce(next *graph.Online, candAt int) (live int) {
	sc := &inc.scratch
	remap, rows, cols := sc.remap, sc.rows, sc.cols
	row := func(x int32) (graph.Bitset, int) {
		at := rows[x]
		if at.off < 0 {
			panic("core: Compact met an edge that descends in the online order; settled prefix was not acyclic-closed") //mtc:alloc-ok the panic of a broken invariant
		}
		return graph.Bitset(sc.bits[at.off : at.off+at.n]), int(at.col)
	}
	off := 0
	for i := len(sc.order) - 1; i >= 0; i-- {
		x := sc.order[i]
		n := (len(cols) + 63) / 64
		reach := graph.Bitset(sc.bits[off : off+n])
		reach.Clear()
		rows[x].off, rows[x].n = int32(off), int32(n)
		off += n
		nx := remap[x]
		if nx < 0 {
			for _, e := range inc.topo.Out(x) {
				if behind, col := row(e.To); remap[e.To] >= 0 {
					reach.Set(col)
				} else {
					reach.UnionWith(behind)
				}
			}
			continue
		}
		// Dependency edges survive verbatim and seed covered, the columns nx
		// reaches without any summary edge. What nx reaches through the
		// collapsed region, and the summary edges earlier compactions left
		// at it, are only candidates.
		covered, cand := reach, graph.Bitset(sc.bits[candAt:candAt+n])
		cand.Clear()
		for _, e := range inc.topo.Out(x) {
			behind, col := row(e.To)
			switch t := remap[e.To]; {
			case t < 0:
				cand.UnionWith(behind)
			case isEpoch(e):
				cand.Set(col)
			default:
				e.From, e.To = nx, t
				next.Load(e)
				live++
				if col >= 0 {
					covered.Set(col)
				}
				covered.UnionWith(behind)
			}
		}
		// Descending columns are ascending ids, which are topological: a
		// candidate can only be implied by a dependency edge or a smaller
		// candidate, both already in covered when it is reached. What is
		// emitted is therefore the transitive reduction of the candidates,
		// and covered ends as their closure.
		for k := n - 1; k >= 0; k-- {
			for w := cand[k] &^ covered[k]; w != 0; w = cand[k] &^ covered[k] {
				col := k<<6 + bits.Len64(w) - 1
				b := cols[col]
				next.Load(graph.Arc{From: nx, To: remap[b], Obj: epochObj, Kind: graph.AUX})
				live++
				sc.heads[remap[b]] = true
				behind, _ := row(b)
				covered.Set(col)
				covered.UnionWith(behind)
			}
		}
		if rows[x].col >= 0 {
			rows[x].col = int32(len(cols))
			cols = append(cols, int32(x))
		}
	}
	return live
}

// sweepSlots is Compact's sweep phase, a second walk over the slot
// records once the new ids are known. A record stays where it is, so
// neither the version table nor latest hears of a survivor: the node ids in
// it are rewritten, its lists move to next, and only a slot with nothing
// left — no readable write, no aborted writer worth naming, nobody parked
// — leaves the table for the free list, and its key's id too if it was
// the key's last slot (a key with a committed write keeps its latest).
//
//mtc:hotpath — per slot and per list cell
func (inc *Incremental) sweepSlots(next *arenas) {
	tier, remap := inc.scratch.tier, inc.scratch.remap
	reIDs := func(ids list) (out list) {
		for _, id := range each(&inc.ids, ids) {
			push(&next.ids, &out, remap[id])
		}
		return out
	}
	for _, s := range inc.records.All() {
		if s.free {
			continue
		}
		s.parked = reIDs(s.parked)
		if s.live {
			s.writer, s.readers = remap[s.writer], reIDs(s.readers)
			if s.over >= 0 {
				s.over = remap[s.over]
			}
		} else { // the committed write is settled; a later read of it parks
			s.writer, s.readers, s.over, s.ref, s.dethroned, s.final = -1, list{}, -1, 0, 0, 0
		}
		if s.aborted >= 0 {
			if tier[s.aborted] == tierBase {
				s.aborted = remap[s.aborted]
			} else {
				s.aborted = -1
			}
		}
		if s.writer < 0 && s.aborted < 0 && s.parked.head == 0 {
			inc.free = append(inc.free, inc.slots.del(&inc.records, s))
			s.free = true
			k := s.key.key
			if inc.keySlots[k]--; inc.keySlots[k] == 0 {
				delete(inc.keyIDs, inc.keys[k])
				if int(k) < len(inc.wireOf) && inc.wireOf[k] != 0 { // the id will name another key
					inc.wire[inc.wireOf[k]-1], inc.wireOf[k] = 0, 0
				}
				inc.keys[k] = ""
				inc.freeKeys = append(inc.freeKeys, k)
			}
		}
	}
}
