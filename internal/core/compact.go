package core

import "mtc/internal/graph"

// Compact collapses the settled prefix of the stream — every transaction
// whose external position is below frontier and whose state can no
// longer influence a future verdict — into a set of summary edges, and
// frees the graph nodes, dependency edges, transaction records and
// version slots behind it. A windowed stream that calls Compact periodically therefore
// holds O(window + boundary) state instead of O(history).
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
// The collapsed subgraph is proved acyclic-closed before it is freed:
// the online order is itself a witness of acyclicity, and per-node
// reachability bitsets (graph.Bitset, computed in one reverse-topological
// sweep as in graph.Closure) summarise every path that crosses the
// collapsed region into a direct AUX "epoch" edge between retained
// nodes, so cycle detection over the remaining stream is unchanged. The
// rebuild panics if either property fails to hold.
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

	// keepBase: transactions whose written values must stay readable —
	// recent arrivals and driver-pinned nodes. Slot retention keys off
	// this tier.
	keepBase := make([]bool, nNodes)
	for i := range inc.txns {
		if e := inc.txns[i].ext; e >= frontier || (pin != nil && pin(e)) {
			keepBase[i] = true
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
		if keepBase[s.writer] {
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

	// keep: full state retained (graph node, transaction record, slot
	// membership).
	keep := make([]bool, nNodes)
	copy(keep, keepBase)
	if inc.initID >= 0 {
		keep[inc.initID] = true
	}
	//mtc:nondeterministic-ok marking keep bits; set union is commutative
	for _, ss := range inc.sessions {
		if ss.last >= 0 {
			keep[ss.last] = true
		}
	}
	// Mark phase over the slot table: parked readers still wait for their
	// writer; an alive slot keeps its writer (which anchors future WR
	// edges even before anyone read it), its readers and its overwriter.
	//mtc:nondeterministic-ok marking keep bits; set union is commutative
	for key, s := range inc.slots {
		for _, r := range s.parked {
			keep[r] = true
		}
		s.live = s.writer >= 0 && alive(key, s)
		if !s.live {
			continue
		}
		keep[s.writer] = true
		for _, r := range s.readers {
			keep[r] = true
		}
		if s.over >= 0 {
			keep[s.over] = true
		}
	}

	// nodeKeep: nodes that must remain addressable in the graph beyond
	// the full-state tier. Under SI a future RW edge out of a kept
	// reader r composes with r's baseIn, and a future base edge into r
	// composes with r's rwOut; the far endpoints of those compositions
	// must still exist as nodes (one hop only — old nodes never gain
	// new base in-edges, and new RW sources are always slot members,
	// which are kept in full).
	nodeKeep := keep
	if inc.lvl == SI {
		nodeKeep = make([]bool, nNodes)
		copy(nodeKeep, keep)
		for i := 0; i < nNodes; i++ {
			if !keep[i] {
				continue
			}
			for _, b := range inc.txns[i].baseIn {
				nodeKeep[b.From] = true
			}
			for _, rw := range inc.txns[i].rwOut {
				nodeKeep[rw.To] = true
			}
		}
	}

	// Generational rebuild. Kept nodes are re-inserted in the current
	// topological order, so every re-added edge (and every summary edge)
	// respects insertion order and the Pearce–Kelly structure starts
	// compact again.
	order := make([]int, nNodes) // order index -> node: ord is a permutation
	for i := range order {
		order[inc.topo.Ord(i)] = i
	}

	newTopo := graph.NewOnline()
	remap := make([]int, nNodes)
	for i := range remap {
		remap[i] = -1
	}
	for _, x := range order {
		if nodeKeep[x] {
			remap[x] = newTopo.AddNode()
		}
	}
	kcount := newTopo.Len()
	collapsed := nNodes - kcount
	if collapsed == 0 {
		return
	}

	// Reverse-topological sweep over the collapsed region: reach[x] is
	// the set of kept nodes reachable from collapsed node x through
	// collapsed-only paths. The online order guarantees ord(From) <
	// ord(To) for every edge, so each successor's set is final when x is
	// visited — the same level-by-level argument graph.Closure uses, and
	// a proof the collapsed prefix is acyclic.
	reach := make(map[int]graph.Bitset, collapsed)
	for i := nNodes - 1; i >= 0; i-- {
		x := order[i]
		if nodeKeep[x] {
			continue
		}
		bits := graph.NewBitset(kcount)
		for _, e := range inc.topo.Out(x) {
			if nodeKeep[e.To] {
				bits.Set(remap[e.To])
			} else {
				bits.UnionWith(reach[e.To])
			}
		}
		reach[x] = bits
	}

	addEdge := func(e graph.Edge) {
		if cy := newTopo.AddEdge(e); cy != nil {
			panic("core: Compact rebuilt a cyclic graph; settled prefix was not acyclic-closed")
		}
	}
	direct := graph.NewBitset(kcount)
	summary := graph.NewBitset(kcount)
	for _, x := range order {
		if !nodeKeep[x] {
			continue
		}
		direct.Clear()
		summary.Clear()
		viaCollapsed := false
		for _, e := range inc.topo.Out(x) {
			if nodeKeep[e.To] {
				addEdge(graph.Edge{From: remap[x], To: remap[e.To], Kind: e.Kind, Obj: e.Obj})
				direct.Set(remap[e.To])
			} else {
				summary.UnionWith(reach[e.To])
				viaCollapsed = true
			}
		}
		if !viaCollapsed {
			continue
		}
		nx := remap[x]
		summary.ForEach(func(b int) {
			if b == nx {
				panic("core: Compact found a cycle through the collapsed region")
			}
			if !direct.Test(b) {
				addEdge(graph.Edge{From: nx, To: b, Kind: graph.AUX, Obj: "epoch"})
			}
		})
	}

	// Renumber what survives. The slot table's keys are versions, which a
	// compaction cannot change: dead slots are deleted, live ones have
	// the node ids inside them rewritten, and nothing is re-keyed.
	reIDs := func(ids []int) {
		for i, id := range ids {
			ids[i] = remap[id]
		}
	}
	reEdges := func(edges []graph.Edge) {
		for i := range edges {
			edges[i].From, edges[i].To = remap[edges[i].From], remap[edges[i].To]
		}
	}
	txns := make([]txnState, kcount)
	for x, nx := range remap {
		if nx < 0 {
			continue
		}
		t := inc.txns[x]
		if keep[x] {
			reEdges(t.baseIn)
			reEdges(t.rwOut)
		} else {
			t = txnState{ext: t.ext} // kept as a graph node only
		}
		txns[nx] = t
	}
	//mtc:nondeterministic-ok slot-for-slot sweep; no order reaches the result
	for key, s := range inc.slots {
		if s.live {
			s.writer = remap[s.writer]
			reIDs(s.readers)
			if s.over >= 0 {
				s.over = remap[s.over]
			}
		} else {
			// The committed write is settled; a later read of it parks.
			*s = slot{writer: -1, aborted: s.aborted, parked: s.parked, over: -1}
		}
		if s.aborted >= 0 && keepBase[s.aborted] {
			s.aborted = remap[s.aborted]
		} else {
			s.aborted = -1
		}
		reIDs(s.parked)
		if s.writer < 0 && s.aborted < 0 && len(s.parked) == 0 {
			delete(inc.slots, key)
		}
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
	witness := make(map[composedKey][]graph.Edge, len(inc.witness))
	//mtc:nondeterministic-ok key-for-key map rebuild; no order reaches the result
	for ck, edges := range inc.witness {
		// The witness threads through an intermediate node; keep the
		// expansion only while all three survive (a composed edge whose
		// witness was collapsed still reports, just unexpanded).
		if !nodeKeep[ck.from] || !nodeKeep[ck.to] || !nodeKeep[edges[0].To] {
			continue
		}
		reEdges(edges)
		witness[composedKey{from: remap[ck.from], to: remap[ck.to]}] = edges
	}

	inc.topo = newTopo
	inc.txns = txns
	inc.witness = witness
	inc.compactTxns += collapsed
	inc.compactEpoch++
}
