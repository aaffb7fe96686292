package core

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mtc/internal/graph"
	"mtc/internal/history"
)

// referenceRebuild is the construction Compact used before it emitted a
// transitive reduction, kept as the oracle: every kept-to-kept edge of old
// is re-inserted verbatim — earlier summary edges included — and every kept
// node gets one summary edge to each kept node it reaches through the
// collapsed region and has no direct edge to. remap[x] is the new id of a
// kept node (kept nodes numbered in old's topological order) and -1 for a
// collapsed one.
func referenceRebuild(old *graph.Online, remap []int, kcount int) *graph.Online {
	n := old.Len()
	order := make([]int, n)
	for i := range order {
		order[old.Ord(i)] = i
	}
	ref := graph.NewOnline()
	for i := 0; i < kcount; i++ {
		ref.AddNode()
	}
	reach := make(map[int]graph.Bitset)
	for i := n - 1; i >= 0; i-- {
		x := order[i]
		if remap[x] >= 0 {
			continue
		}
		bits := graph.NewBitset(kcount)
		for _, e := range old.Out(x) {
			if remap[e.To] >= 0 {
				bits.Set(remap[e.To])
			} else {
				bits.UnionWith(reach[int(e.To)])
			}
		}
		reach[x] = bits
	}
	addEdge := func(e graph.Arc) {
		if cy := ref.AddEdge(e); cy != nil {
			panic("reference rebuild is cyclic")
		}
	}
	direct, summary := graph.NewBitset(kcount), graph.NewBitset(kcount)
	for _, x := range order {
		nx := remap[x]
		if nx < 0 {
			continue
		}
		direct.Clear()
		summary.Clear()
		for _, e := range old.Out(x) {
			if remap[e.To] >= 0 {
				addEdge(graph.Arc{From: int32(nx), To: int32(remap[e.To]), Kind: e.Kind, Obj: e.Obj})
				direct.Set(remap[e.To])
			} else {
				summary.UnionWith(reach[int(e.To)])
			}
		}
		for b := 0; b < kcount; b++ {
			if !summary.Test(b) {
				continue
			}
			if b == nx {
				panic("reference rebuild found a cycle through the collapsed region")
			}
			if !direct.Test(b) {
				addEdge(graph.Arc{From: int32(nx), To: int32(b), Kind: graph.AUX, Obj: epochObj})
			}
		}
	}
	return ref
}

// closureOf returns, per node of o, the set of nodes it reaches.
func closureOf(o *graph.Online) []graph.Bitset {
	n := o.Len()
	order := make([]int, n)
	for v := range order {
		order[o.Ord(v)] = v
	}
	rows := make([]graph.Bitset, n)
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		rows[v] = graph.NewBitset(n)
		for _, e := range o.Out(v) {
			rows[v].Set(int(e.To))
			rows[v].UnionWith(rows[e.To])
		}
	}
	return rows
}

// legacySweep is the reachability sweep Compact ran before its rows were
// compressed, kept as the oracle of the edges it loads and of their order:
// one bitset row over all kept ids per node of old — kept or collapsed — cut
// from a rectangular arena, every kept node a column, and the edges staged
// in the slice it returns. remap is as for referenceRebuild.
func legacySweep(old *graph.Online, remap []int, kcount int) []graph.Arc {
	nNodes := old.Len()
	order := make([]int, nNodes)
	for i := range order {
		order[old.Ord(i)] = i
	}
	rowOf := make([]int, nNodes) // kept rows first, then collapsed ones in order
	nc := 0
	for _, x := range order {
		if rowOf[x] = remap[x]; remap[x] < 0 {
			rowOf[x] = kcount + nc
			nc++
		}
	}
	words := (kcount + 63) / 64
	arena := make([]uint64, (nNodes+1)*words)
	row := func(id int) graph.Bitset { return graph.Bitset(arena[id*words : (id+1)*words]) }
	cand := row(nNodes)
	var rebuilt []graph.Arc
	for i := nNodes - 1; i >= 0; i-- {
		x := order[i]
		nx := remap[x]
		if nx < 0 {
			reach := row(rowOf[x])
			for _, e := range old.Out(x) {
				if t := remap[e.To]; t >= 0 {
					reach.Set(t)
				} else {
					reach.UnionWith(row(rowOf[e.To]))
				}
			}
			continue
		}
		covered := row(nx)
		cand.Clear()
		for _, e := range old.Out(x) {
			t := remap[e.To]
			switch {
			case t < 0:
				cand.UnionWith(row(rowOf[e.To]))
			case isEpoch(e):
				cand.Set(t)
			default:
				if t <= nx {
					panic("legacy sweep rebuilt a cyclic graph")
				}
				rebuilt = append(rebuilt, graph.Arc{From: int32(nx), To: int32(t), Kind: e.Kind, Obj: e.Obj})
				covered.Set(t)
				covered.UnionWith(row(t))
			}
		}
		for k := range cand {
			for w := cand[k] &^ covered[k]; w != 0; w = cand[k] &^ covered[k] {
				b := k<<6 + bits.TrailingZeros64(w)
				if b <= nx {
					panic("legacy sweep found a cycle through the collapsed region")
				}
				rebuilt = append(rebuilt, graph.Arc{From: int32(nx), To: int32(b), Kind: graph.AUX, Obj: epochObj})
				covered.Set(b)
				covered.UnionWith(row(b))
			}
		}
	}
	return rebuilt
}

// sweepChecked runs compact — a Compact or MaybeCompact call on inc — and,
// if it collapsed anything, holds the graph it loaded against legacySweep:
// the same edges in the same order, so every out list and every in list is
// element for element what the old sweep and Reload left. It returns the
// graph of the epoch just ended and the remap from its nodes to the new
// ones (-1 for a collapsed node), nil when nothing was collapsed.
func sweepChecked(tb testing.TB, inc *Incremental, compact func()) (old *graph.Online, remap []int) {
	tb.Helper()
	old, epoch := inc.topo, inc.compactEpoch
	exts := make([]int, len(inc.txns))
	for x := range exts {
		exts[x] = inc.txns[x].ext
	}
	compact()
	if inc.compactEpoch == epoch {
		if inc.topo != old {
			tb.Fatal("a compaction that collapsed nothing replaced the graph")
		}
		return nil, nil
	}
	kcount := inc.topo.Len()
	if kcount != len(inc.txns) {
		tb.Fatalf("%d graph nodes, %d transaction records", kcount, len(inc.txns))
	}
	newID := make(map[int]int, kcount)
	for nx := range inc.txns {
		newID[inc.txns[nx].ext] = nx
		if inc.topo.Ord(nx) != nx {
			tb.Fatalf("rebuilt order is not the identity at %d", nx)
		}
	}
	remap = make([]int, len(exts))
	for x, ext := range exts {
		remap[x] = -1
		if nx, kept := newID[ext]; kept {
			remap[x] = nx
		}
	}
	// The sweep loads sources in descending order, each one's edges in out
	// list order.
	var loaded []graph.Arc
	for v := kcount - 1; v >= 0; v-- {
		for _, e := range inc.topo.Out(v) {
			loaded = append(loaded, e)
		}
	}
	if legacy := legacySweep(old, remap, kcount); !slices.Equal(legacy, loaded) {
		for i := range min(len(legacy), len(loaded)) {
			if legacy[i] != loaded[i] {
				tb.Fatalf("epoch %d: edge %d loaded is %v, the legacy sweep's %v", inc.compactEpoch, i, loaded[i], legacy[i])
			}
		}
		tb.Fatalf("epoch %d: %d edges loaded, the legacy sweep stages %d", inc.compactEpoch, len(loaded), len(legacy))
	}
	return old, remap
}

// compactChecked is sweepChecked and then the rebuilt graph held against
// the reference:
//
//	(a) kept-node reachability equals the reference's, pair for pair;
//	(b) the dependency edges among kept nodes survived as a multiset, Kind
//	    and Obj intact, and nothing else but summary edges was added;
//	(c) no summary edge is implied by the other edges.
func compactChecked(tb testing.TB, inc *Incremental, compact func()) {
	tb.Helper()
	old, remap := sweepChecked(tb, inc, compact)
	if old == nil {
		return
	}
	got := inc.topo
	kcount := got.Len()
	ref := referenceRebuild(old, remap, kcount)

	// (a)
	gotReach, refReach := closureOf(got), closureOf(ref)
	for v := 0; v < kcount; v++ {
		if !slices.Equal(gotReach[v], refReach[v]) {
			tb.Fatalf("epoch %d: node %d (ext %d) reaches a different kept set than the reference",
				inc.compactEpoch, v, inc.txns[v].ext)
		}
	}
	// (b)
	deps := map[graph.Arc]int{}
	for x := 0; x < old.Len(); x++ {
		for _, e := range old.Out(x) {
			if remap[x] >= 0 && remap[e.To] >= 0 && !isEpoch(e) {
				deps[graph.Arc{From: int32(remap[x]), To: int32(remap[e.To]), Kind: e.Kind, Obj: e.Obj}]++
			}
		}
	}
	edges := 0
	for v := 0; v < kcount; v++ {
		for _, e := range got.Out(v) {
			edges++
			if !isEpoch(e) {
				deps[e]--
			}
		}
	}
	for e, n := range deps {
		if n != 0 {
			tb.Fatalf("epoch %d: dependency edge %v: %d lost (negative: invented)", inc.compactEpoch, e, n)
		}
	}
	if edges != inc.LiveEdges() {
		tb.Fatalf("epoch %d: LiveEdges() = %d, the graph holds %d", inc.compactEpoch, inc.LiveEdges(), edges)
	}
	// (c)
	for v := 0; v < kcount; v++ {
		for i, e := range got.Out(v) {
			if !isEpoch(e) {
				continue
			}
			for j, via := range got.Out(v) {
				if j != i && (via.To == e.To || gotReach[via.To].Test(int(e.To))) {
					tb.Fatalf("epoch %d: summary edge %v is implied by %v", inc.compactEpoch, e, via)
				}
			}
		}
	}
}

// replayChecked is CheckIncrementalWindowedCtx with every compaction held
// against the reference rebuild.
func replayChecked(tb testing.TB, h *history.History, lvl Level, window int) Result {
	tb.Helper()
	order := make([]int, len(h.Txns))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return h.Txns[order[a]].Finish < h.Txns[order[b]].Finish
	})
	keepUntil := futureRefs(h, order)
	inc := NewIncremental(lvl)
	for i, id := range order {
		if vio := inc.add(h.Txns[id], nil, h.HasInit && id == 0); vio != nil {
			return RemapResult(*vio, order)
		}
		fed := i + 1
		compactChecked(tb, inc, func() {
			inc.MaybeCompact(window, 0, func(e int) bool { return keepUntil[e] >= fed })
		})
	}
	return RemapResult(inc.Finalize(), order)
}

// TestReplayCheckedIsTheWindowedReplay keeps the test driver honest: it
// must return what the driver it mirrors returns.
func TestReplayCheckedIsTheWindowedReplay(t *testing.T) {
	for _, fx := range history.Fixtures() {
		for _, lvl := range []Level{SER, SI} {
			want, _ := CheckIncrementalWindowedCtx(context.Background(), fx.H, lvl, 2)
			if got := replayChecked(t, fx.H, lvl, 2); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s/%s: replayChecked = %+v, windowed replay = %+v", fx.Name, lvl, got, want)
			}
		}
	}
}

// storeSim is a single-copy store that hands out what a transaction of
// one of the mini-transaction shapes observes: reads see the latest value,
// writes install fresh unique ones, so the stream is serializable.
type storeSim struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	keys  []history.Key
	cur   []history.Value
	fresh history.Value
}

func newStoreSim(seed int64, keys int) *storeSim {
	rng := rand.New(rand.NewSource(seed))
	s := &storeSim{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(keys-1)), fresh: 1}
	for k := 0; k < keys; k++ {
		s.keys = append(s.keys, history.Key(fmt.Sprintf("k%d", k)))
	}
	s.cur = make([]history.Value, keys)
	return s
}

func (s *storeSim) read(k int) history.Op { return history.R(s.keys[k], s.cur[k]) }

func (s *storeSim) write(k int) history.Op {
	s.cur[k] = s.fresh
	s.fresh++
	return history.W(s.keys[k], s.cur[k])
}

// next draws one transaction: R, R+R, RMW, R+RMW or RMW+RMW over Zipf keys.
func (s *storeSim) next(sess int) history.Txn {
	k1, k2 := int(s.zipf.Uint64()), int(s.zipf.Uint64())
	var ops []history.Op
	switch shape := s.rng.Intn(5); {
	case shape == 0:
		ops = []history.Op{s.read(k1)}
	case k1 == k2 || shape == 1:
		ops = []history.Op{s.read(k1), s.write(k1)}
	case shape == 2:
		ops = []history.Op{s.read(k1), s.read(k2)}
	case shape == 3:
		ops = []history.Op{s.read(k1), s.read(k2), s.write(k2)}
	default:
		ops = []history.Op{s.read(k1), s.write(k1), s.read(k2), s.write(k2)}
	}
	return history.Txn{Session: sess, Ops: ops, Committed: true}
}

// TestCompactEmitsTheReduction drives randomized streams through windowed
// compaction the three ways drivers do — nothing pinned, a driver pinning
// transactions for a few epochs, live sessions holding the staleness
// horizon — and holds every rebuilt graph against the reference.
func TestCompactEmitsTheReduction(t *testing.T) {
	const (
		keys     = 48
		sessions = 6
		txns     = 2500
	)
	for _, lvl := range []Level{SER, SI} {
		for _, mode := range []string{"unpinned", "pinned", "live"} {
			for seed := int64(1); seed <= 3; seed++ {
				window := 32 << seed
				store := newStoreSim(seed, keys)
				inc := NewIncremental(lvl)
				inc.InitTxn(store.keys...)
				var pin func(int) bool
				switch mode {
				case "pinned":
					// A seventh of the stream outlives four windows.
					pin = func(e int) bool { return e%7 == 3 && e >= inc.NumTxns()-4*window }
				case "live":
					for s := 0; s < sessions; s++ {
						inc.ExpectSession(s)
					}
				}
				for i := 0; i < txns; i++ {
					if vio := inc.Add(store.next(i % sessions)); vio != nil {
						t.Fatalf("%s/%s/seed %d: serializable stream rejected at %d: %s", lvl, mode, seed, i, vio.Witness())
					}
					compactChecked(t, inc, func() { inc.MaybeCompact(window, 0, pin) })
				}
				if inc.CompactedEpochs() < txns/window {
					t.Fatalf("%s/%s/seed %d: only %d compactions", lvl, mode, seed, inc.CompactedEpochs())
				}
			}
		}
	}
}

// TestCompactNothingToCollapseAllocatesNothing: a compaction that keeps
// every node finds that out before it builds anything.
func TestCompactNothingToCollapseAllocatesNothing(t *testing.T) {
	for _, lvl := range []Level{SER, SI} {
		store := newStoreSim(1, 8)
		inc := NewIncremental(lvl)
		inc.InitTxn(store.keys...)
		for i := 0; i < 200; i++ {
			inc.Add(store.next(i % 4))
		}
		everything := func(int) bool { return true }
		if n := testing.AllocsPerRun(10, func() { inc.Compact(inc.NumTxns(), everything) }); n != 0 {
			t.Errorf("%s: a no-op compaction allocates %v times", lvl, n)
		}
		if inc.CompactedEpochs() != 0 || inc.LiveNodes() != 201 {
			t.Errorf("%s: no-op compaction changed state: %d epochs, %d live nodes", lvl, inc.CompactedEpochs(), inc.LiveNodes())
		}
	}
}

// TestSweepMatchesLegacyOnZipf: the stream the benchmarks run — 2000 Zipf
// keys, window 2048 — at both levels, and at SER with live sessions holding
// the staleness horizon: every compaction loads the legacy sweep's edges.
func TestSweepMatchesLegacyOnZipf(t *testing.T) {
	const (
		keys     = 2000
		sessions = 8
		txns     = 20000
		window   = 2048
	)
	for _, tc := range []struct {
		lvl  Level
		live bool
	}{{SER, false}, {SI, false}, {SER, true}} {
		store := newStoreSim(7, keys)
		inc := NewIncremental(tc.lvl)
		inc.InitTxn(store.keys...)
		for s := 0; tc.live && s < sessions; s++ {
			inc.ExpectSession(s)
		}
		for i := 0; i < txns; i++ {
			if vio := inc.Add(store.next(i % sessions)); vio != nil {
				t.Fatalf("%s: serializable stream rejected at %d: %s", tc.lvl, i, vio.Witness())
			}
			sweepChecked(t, inc, func() { inc.MaybeCompact(window, 0, nil) })
		}
		if got, want := inc.CompactedEpochs(), txns/(window/2)-2; got < want {
			t.Fatalf("%s: %d compactions, want at least %d", tc.lvl, got, want)
		}
	}
}

// TestSweepMatchesLegacyOutOfOrder: one session's records reach the
// checker several windows late, so reads of its values park, survive
// compactions as parked readers, and are woken by a writer that arrives
// behind them: edges from a new node to an old one, the only ones that
// take the online order off the identity a compaction left. The sweep
// follows that order, not the ids.
func TestSweepMatchesLegacyOutOfOrder(t *testing.T) {
	const (
		keys     = 24
		sessions = 6
		late     = sessions - 1 // the session whose records are delayed
		delay    = 200
		window   = 64
		txns     = 4000
	)
	for _, lvl := range []Level{SER, SI} {
		store := newStoreSim(3, keys)
		inc := NewIncremental(lvl)
		inc.InitTxn(store.keys...)
		type held struct {
			t   history.Txn
			due int
		}
		var queue []held
		reordered, backward := 0, 0
		for i := 0; i < txns; i++ {
			feed := []history.Txn{store.next(i % sessions)}
			if feed[0].Session == late {
				queue, feed = append(queue, held{feed[0], i + delay}), nil
			}
			for len(queue) > 0 && queue[0].due <= i {
				feed, queue = append(feed, queue[0].t), queue[1:]
			}
			for _, txn := range feed {
				if vio := inc.Add(txn); vio != nil {
					t.Fatalf("%s: serializable stream rejected at %d: %s", lvl, i, vio.Witness())
				}
				offIdentity, newToOld := false, false
				for x := 0; x < inc.topo.Len(); x++ {
					offIdentity = offIdentity || inc.topo.Ord(x) != x
					for _, e := range inc.topo.Out(x) {
						newToOld = newToOld || e.To < e.From
					}
				}
				epoch := inc.CompactedEpochs()
				compactChecked(t, inc, func() { inc.MaybeCompact(window, 0, nil) })
				if inc.CompactedEpochs() != epoch {
					if offIdentity {
						reordered++
					}
					if newToOld {
						backward++
					}
				}
			}
		}
		if reordered < 10 || backward < 10 {
			t.Fatalf("%s: %d compactions met a reordered graph, %d an edge from a new node to an old one; the stream is not out of order enough",
				lvl, reordered, backward)
		}
	}
}

// slotAt is the slot of version (k, v), nil while the checker knows none.
func slotAt(inc *Incremental, k history.Key, v history.Value) *slot {
	kid, ok := inc.keyIDs[k]
	if _, id := inc.slots.find(&inc.records, version{kid, v}); ok && id != 0 {
		return inc.records.At(id)
	}
	return nil
}

// TestIntermediateVersionSharesItsFinalSlotsFate: a transaction that
// writes a key three times leaves two intermediate versions, and they are
// readable — as the IntermediateRead anomaly — for exactly as long as the
// final one is: while it is the key's latest, through the window after it
// was overwritten, and not an epoch longer. A read of one never parks
// while its writer is known, and parks, like a read of any settled value,
// once it is not.
func TestIntermediateVersionSharesItsFinalSlotsFate(t *testing.T) {
	const window = 8
	for _, lvl := range []Level{SER, SI} {
		sawReadable, sawSettled := false, false
		for _, readAfter := range []int{0, 1, 2, 3} { // half-windows between the overwrite and the read
			for _, v := range []history.Value{101, 102} {
				inc := NewIncremental(lvl)
				inc.InitTxn("x", "pad")
				fresh, cur := history.Value(1000), history.Value(0)
				pad := func(n int) { // RMWs of the other key: traffic that ages the window
					for i := 0; i < n; i++ {
						if vio := inc.Add(history.Txn{Session: 1, Committed: true, Ops: []history.Op{history.R("pad", cur), history.W("pad", fresh)}}); vio != nil {
							t.Fatalf("padding rejected: %s", vio.Witness())
						}
						cur, fresh = fresh, fresh+1
						inc.MaybeCompact(window, 0, nil)
					}
				}
				inc.Add(history.Txn{Session: 0, Committed: true, Ops: []history.Op{
					history.R("x", 0), history.W("x", 101), history.W("x", 102), history.W("x", 103),
				}})
				for _, iv := range []history.Value{101, 102} {
					if s := slotAt(inc, "x", iv); s == nil || s.final == 0 {
						t.Fatalf("%s: version %d of x has no final slot", lvl, iv)
					}
				}
				pad(3 * window) // three epochs as the key's latest
				for _, iv := range []history.Value{101, 102, 103} {
					if s := slotAt(inc, "x", iv); s == nil || s.writer < 0 {
						t.Fatalf("%s: version %d of x died while 103 was x's latest", lvl, iv)
					}
				}
				// Overwritten: readable for one more window.
				inc.Add(history.Txn{Session: 2, Committed: true, Ops: []history.Op{history.R("x", 103), history.W("x", 104)}})
				pad(readAfter * window / 2)
				epochs := inc.CompactedEpochs()
				final := slotAt(inc, "x", 103)
				vio := inc.Add(history.Txn{Session: 3, Committed: true, Ops: []history.Op{history.R("x", v)}})
				switch {
				case final != nil && final.writer >= 0:
					sawReadable = true
					if vio == nil || len(vio.Anomalies) != 1 || vio.Anomalies[0].Kind != history.IntermediateRead {
						t.Fatalf("%s: read of x=%d %d half-windows after the overwrite, final slot readable: got %v, want IntermediateRead", lvl, v, readAfter, vio)
					}
				default:
					sawSettled = true
					if readAfter < 2 {
						t.Fatalf("%s: the final slot died %d half-windows after the overwrite", lvl, readAfter)
					}
					if vio != nil {
						t.Fatalf("%s: read of the settled x=%d rejected online: %s", lvl, v, vio.Witness())
					}
					if s := slotAt(inc, "x", v); s == nil || s.parked.head == 0 || s.writer >= 0 || s.final != 0 {
						t.Fatalf("%s: read of the settled x=%d did not park on a blank slot: %+v", lvl, v, s)
					}
				}
				if epochs < 3 {
					t.Fatalf("%s: only %d epochs before the read", lvl, epochs)
				}
			}
		}
		if !sawReadable || !sawSettled {
			t.Fatalf("%s: final slot seen readable: %v, settled: %v; want both", lvl, sawReadable, sawSettled)
		}
	}
}
