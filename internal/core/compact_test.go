package core

import (
	"context"
	"fmt"
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
				bits.UnionWith(reach[e.To])
			}
		}
		reach[x] = bits
	}
	addEdge := func(e graph.Edge) {
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
				addEdge(graph.Edge{From: nx, To: remap[e.To], Kind: e.Kind, Obj: e.Obj})
				direct.Set(remap[e.To])
			} else {
				summary.UnionWith(reach[e.To])
			}
		}
		summary.ForEach(func(b int) {
			if b == nx {
				panic("reference rebuild found a cycle through the collapsed region")
			}
			if !direct.Test(b) {
				addEdge(graph.Edge{From: nx, To: b, Kind: graph.AUX, Obj: epochObj})
			}
		})
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
			rows[v].Set(e.To)
			rows[v].UnionWith(rows[e.To])
		}
	}
	return rows
}

func isEpoch(e graph.Edge) bool { return e.Kind == graph.AUX && e.Obj == epochObj }

// compactChecked runs compact — a Compact or MaybeCompact call on inc — and,
// if it collapsed anything, holds the rebuilt graph against the reference:
//
//	(a) kept-node reachability equals the reference's, pair for pair;
//	(b) the dependency edges among kept nodes survived as a multiset, Kind
//	    and Obj intact, and nothing else but summary edges was added;
//	(c) no summary edge is implied by the other edges.
func compactChecked(tb testing.TB, inc *Incremental, compact func()) {
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
		return
	}
	got := inc.topo
	kcount := got.Len()
	if kcount != len(inc.txns) {
		tb.Fatalf("%d graph nodes, %d transaction records", kcount, len(inc.txns))
	}
	newID := make(map[int]int, kcount)
	for nx := range inc.txns {
		newID[inc.txns[nx].ext] = nx
		if got.Ord(nx) != nx {
			tb.Fatalf("rebuilt order is not the identity at %d", nx)
		}
	}
	remap := make([]int, len(exts))
	for x, ext := range exts {
		remap[x] = -1
		if nx, kept := newID[ext]; kept {
			remap[x] = nx
		}
	}
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
	deps := map[graph.Edge]int{}
	for x := 0; x < old.Len(); x++ {
		for _, e := range old.Out(x) {
			if remap[x] >= 0 && remap[e.To] >= 0 && !isEpoch(e) {
				deps[graph.Edge{From: remap[x], To: remap[e.To], Kind: e.Kind, Obj: e.Obj}]++
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
				if j != i && (via.To == e.To || gotReach[via.To].Test(e.To)) {
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
		if vio := inc.add(h.Txns[id], h.HasInit && id == 0); vio != nil {
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
						t.Fatalf("%s/%s/seed %d: serializable stream rejected at %d: %s", lvl, mode, seed, i, vio.Explain())
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
