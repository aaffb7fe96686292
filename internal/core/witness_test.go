package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"mtc/internal/graph"
	"mtc/internal/history"
)

// eagerWitness is the composed-edge witness map the online checker kept
// before it found witnesses again from its lists, kept as the oracle
// composeWitness is held to: every composition records its pair unless
// the edge already has one, and a compaction keeps an entry, renumbered,
// only while the edge's two ends and the pair's mid all survive. It
// watches an Incremental from outside: the cells each step pushed, read
// off the deps slab in the order they were handed out, replay the
// composition loop of addDepEdge on lists of its own.
type eagerWitness struct {
	inc           *Incremental
	seen          int32 // the last deps cell replayed
	baseIn, rwOut map[int32][]graph.Arc
	witness       map[composedKey][2]graph.Arc
}

func newEagerWitness(inc *Incremental) *eagerWitness {
	return &eagerWitness{inc: inc, baseIn: map[int32][]graph.Arc{}, rwOut: map[int32][]graph.Arc{},
		witness: map[composedKey][2]graph.Arc{}}
}

// replay composes the cells pushed since the last call. After a violation
// it composes the last cell against its whole partner list, where
// addDepEdge stopped at the cycle: the pairs past that point compose
// edges that share the closing edge's head or tail, which no other arc of
// a simple cycle does.
func (ew *eagerWitness) replay() {
	for id, c := range ew.inc.deps.All() {
		if id <= ew.seen {
			continue
		}
		ew.seen = id
		if e := c.v; e.Kind == graph.RW {
			ew.rwOut[e.From] = append(ew.rwOut[e.From], e)
			for _, b := range ew.baseIn[e.From] {
				ew.compose(b, e)
			}
		} else {
			ew.baseIn[e.To] = append(ew.baseIn[e.To], e)
			for _, rw := range ew.rwOut[e.To] {
				ew.compose(e, rw)
			}
		}
	}
}

func (ew *eagerWitness) compose(base, rw graph.Arc) {
	ck := composedKey{from: base.From, to: rw.To}
	if _, dup := ew.witness[ck]; !dup {
		ew.witness[ck] = [2]graph.Arc{base, rw}
	}
}

// compact runs compact — a Compact or MaybeCompact call on the checker —
// and, if it took effect, renumbers the map by the old rule and takes the
// lists the compaction copied.
func (ew *eagerWitness) compact(compact func()) {
	inc, epoch := ew.inc, ew.inc.compactEpoch
	exts := make([]int, len(inc.txns))
	for x := range exts {
		exts[x] = inc.txns[x].ext
	}
	compact()
	if inc.compactEpoch == epoch {
		return
	}
	newID := map[int]int32{}
	for nx := range inc.txns {
		newID[inc.txns[nx].ext] = int32(nx)
	}
	remap := func(x int32) int32 {
		if nx, ok := newID[exts[x]]; ok {
			return nx
		}
		return -1
	}
	next := map[composedKey][2]graph.Arc{}
	for ck, w := range ew.witness {
		f, t, m := remap(ck.from), remap(ck.to), remap(w[0].To)
		if f < 0 || t < 0 || m < 0 {
			continue
		}
		for i := range w {
			w[i].From, w[i].To = remap(w[i].From), remap(w[i].To)
		}
		next[composedKey{f, t}] = w
	}
	ew.witness = next
	clear(ew.baseIn)
	clear(ew.rwOut)
	for x := range inc.txns {
		for _, e := range each(&inc.deps, inc.txns[x].baseIn) {
			ew.baseIn[int32(x)] = append(ew.baseIn[int32(x)], e)
		}
		for _, e := range each(&inc.deps, inc.txns[x].rwOut) {
			ew.rwOut[int32(x)] = append(ew.rwOut[int32(x)], e)
		}
	}
	for id := range inc.deps.All() {
		ew.seen = id
	}
}

// checkGraph holds composeWitness to the map on every AUX arc of the live
// graph, composed or summary, and returns how many it compared and how
// many of those the last compaction's map answered.
func (ew *eagerWitness) checkGraph(tb testing.TB) (arcs, carried int) {
	tb.Helper()
	inc := ew.inc
	for x := range inc.topo.Len() {
		for _, a := range inc.topo.Out(x) {
			if a.Kind != graph.AUX {
				continue
			}
			arcs++
			if inc.witness[composedKey{a.From, a.To}] != noWitness {
				carried++
			}
			got, ok := inc.composeWitness(a.From, a.To)
			want, wok := ew.witness[composedKey{a.From, a.To}]
			if ok != wok || got != want {
				tb.Fatalf("epoch %d, arc %v: composeWitness = %v %v, the eager map holds %v %v",
					inc.compactEpoch, a, got, ok, want, wok)
			}
		}
	}
	return arcs, carried
}

// checkCycle holds a violation's cycle, as the checker rendered it, to
// the one the eager map renders: each arc of the online graph's cycle is
// recovered from the rendering — an RW edge is the second half of an
// expanded one, which spans its base's From and its own To — and expanded
// again through the map. It returns how many AUX arcs the cycle held.
func (ew *eagerWitness) checkCycle(tb testing.TB, r *Result) (aux int) {
	tb.Helper()
	inc := ew.inc
	node := map[int]int32{}
	for x := range inc.txns {
		node[inc.txns[x].ext] = int32(x)
	}
	render := func(a graph.Arc) graph.Edge {
		e := graph.Edge{From: inc.extOf(int(a.From)), To: inc.extOf(int(a.To)), Kind: a.Kind}
		if a.Obj >= 0 {
			e.Obj = string(inc.keys[a.Obj])
		}
		return e
	}
	var want []graph.Edge
	for i := 0; i < len(r.Cycle); i++ {
		e, raw := r.Cycle[i], r.Cycle[i:i+1]
		if i+1 < len(r.Cycle) && r.Cycle[i+1].Kind == graph.RW {
			e.To, e.Kind, raw = r.Cycle[i+1].To, graph.AUX, r.Cycle[i:i+2]
			i++
		}
		if e.Kind != graph.AUX {
			want = append(want, raw...)
			continue
		}
		aux++
		switch w, ok := ew.witness[composedKey{node[e.From], node[e.To]}]; {
		case ok:
			want = append(want, render(w[0]), render(w[1]))
		case len(raw) == 1:
			want = append(want, raw...)
		default: // the checker expanded an arc the map has no pair for
			want = append(want, e)
		}
	}
	if !slices.Equal(want, r.Cycle) {
		tb.Fatalf("cycle %v, the eager map renders %v", r.Cycle, want)
	}
	return aux
}

// staleStream draws an SI history of mini-transactions over a few keys in
// which one read in stale sees one of the last three committed versions
// of its key rather than the latest:
// lost updates, write skews and read skews, which close cycles through
// composed edges, among clean stretches long enough to compact.
func staleStream(rng *rand.Rand, n, stale int) *history.History {
	keys := []history.Key{"a", "b", "c", "d", "e"}
	b := history.NewBuilder(keys...)
	versions := make([][]history.Value, len(keys))
	for k := range versions {
		versions[k] = []history.Value{0}
	}
	fresh := history.Value(1)
	read := func(k int) history.Op {
		vs := versions[k]
		back := 0
		if rng.IntN(stale) == 0 {
			back = rng.IntN(min(len(vs), 3))
		}
		return history.R(keys[k], vs[len(vs)-1-back])
	}
	write := func(k int) history.Op {
		versions[k] = append(versions[k], fresh)
		fresh++
		return history.W(keys[k], fresh-1)
	}
	for range n {
		k1, k2 := rng.IntN(len(keys)), rng.IntN(len(keys))
		var ops []history.Op
		switch shape := rng.IntN(5); {
		case shape == 0:
			ops = []history.Op{read(k1)}
		case k1 == k2 || shape == 1:
			ops = []history.Op{read(k1), write(k1)}
		case shape == 2:
			ops = []history.Op{read(k1), read(k2)}
		case shape == 3:
			ops = []history.Op{read(k1), read(k2), write(k2)}
		default:
			ops = []history.Op{read(k1), write(k1), read(k2), write(k2)}
		}
		b.Txn(rng.IntN(4), ops...)
	}
	return b.Build()
}

// TestComposedWitnessMatchesEagerMap: on SI streams with stale reads at
// windows 0, 4, 16 and 64, after every compaction and every eighth
// transaction composeWitness names, for every AUX arc of the live graph,
// the pair the eager map holds, and every violation's cycle is the one the
// map renders.
func TestComposedWitnessMatchesEagerMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(54, 1))
	var arcs, carried, cycles, late, expanded int
	for range 500 {
		h := staleStream(rng, 40+rng.IntN(160), 8<<rng.IntN(4))
		order := make([]int, len(h.Txns))
		for i := range order {
			order[i] = i
		}
		keepUntil := futureRefs(h, order)
		for _, window := range []int{0, 4, 16, 64} {
			inc := NewIncremental(SI)
			ew := newEagerWitness(inc)
			for i := range h.Txns {
				vio := inc.add(h.Txns[i], nil, i == 0)
				ew.replay()
				if vio != nil {
					if len(vio.Cycle) > 0 {
						cycles++
						if inc.compactEpoch > 0 {
							late++
						}
						expanded += ew.checkCycle(t, vio)
					}
					break
				}
				fed, epoch := i+1, inc.compactEpoch
				ew.compact(func() { inc.MaybeCompact(window, 0, func(e int) bool { return keepUntil[e] >= fed }) })
				if inc.compactEpoch != epoch || i%8 == 0 {
					n, c := ew.checkGraph(t)
					arcs, carried = arcs+n, carried+c
				}
			}
		}
	}
	t.Logf("%d AUX arcs compared on live graphs (%d answered by a compaction's map); %d cycles (%d after a compaction) holding %d AUX arcs",
		arcs, carried, cycles, late, expanded)
	if late < 250 || expanded < cycles || carried == 0 {
		t.Fatalf("%d cycles after a compaction, %d AUX arcs in %d cycles, %d arcs the map answered: the streams no longer exercise the witness",
			late, expanded, cycles, carried)
	}
}

// TestComposedWitnessAcrossCompaction builds the two cases a compaction
// makes subtle. F (T2) and T (T5) are pinned; M (T3) and Y (T4) follow F
// in its session and collapse.
//
//   - A tombstone, then a new pair: F ; M → T composes the edge F → T
//     before the compaction, which keeps the edge but collapses M. A
//     cycle through F → T reports it unexpanded — unless M2 (T8) composed
//     it again after the compaction: then M2 is its witness.
//   - A summary edge sharing a composed edge's ends: F reaches T only
//     through M ; Y → T, so the compaction leaves an epoch edge F → T. M2
//     then composes F → T, and the cycle M3 (T9) closes runs through the
//     older epoch edge, expanded through M2 as the eager map expanded it.
func TestComposedWitnessAcrossCompaction(t *testing.T) {
	type txn struct {
		sess int
		ops  []history.Op
	}
	R, W := history.R, history.W
	stale := []history.Op{R("x", 0)}
	head := func(m, y []history.Op) []txn {
		return []txn{
			{1, []history.Op{W("z", 5), W("u", 5)}},
			{0, []history.Op{R("u", 5), W("u", 6), W("y", 1)}}, // F
			{0, m}, {0, y},
			{2, []history.Op{R("x", 0), W("x", 1), R("z", 5), W("z", 6)}}, // T
			{0, nil}, {0, nil}, // M and Y are not their session's last
		}
	}
	m2 := txn{3, []history.Op{R("y", 1), R("z", 5)}}
	m3 := txn{4, []history.Op{R("x", 1), R("u", 5)}}
	for _, tc := range []struct {
		name string
		txns []txn
		want string
	}{
		{"collapsed mid", append(head(stale, nil), m3),
			"[T5 -WR(x)-> T8 T8 -RW(u)-> T2 T2 -AUX((;RW))-> T5]"},
		{"collapsed mid, composed again", append(head(stale, nil), m2, m3),
			"[T5 -WR(x)-> T9 T9 -RW(u)-> T2 T2 -WR(y)-> T8 T8 -RW(z)-> T5]"},
		{"epoch edge, then composed", append(head(nil, stale), m2, m3),
			"[T5 -WR(x)-> T9 T9 -RW(u)-> T2 T2 -WR(y)-> T8 T8 -RW(z)-> T5]"},
	} {
		inc := NewIncremental(SI)
		ew := newEagerWitness(inc)
		inc.InitTxn("x", "y", "z", "u")
		var vio *Result
		for i, tx := range tc.txns {
			if vio = inc.Add(history.Txn{Session: tx.sess, Ops: tx.ops, Committed: true}); vio != nil {
				break
			}
			ew.replay()
			if i == 6 {
				ew.compact(func() {
					inc.Compact(inc.NumTxns(), func(e int) bool { return e == 1 || e == 2 || e == 5 })
				})
				if inc.CompactedTxns() != 2 {
					t.Fatalf("%s: the compaction collapsed %d transactions, want M and Y", tc.name, inc.CompactedTxns())
				}
			}
			ew.checkGraph(t)
		}
		if vio == nil {
			t.Fatalf("%s: no violation", tc.name)
		}
		ew.replay()
		ew.checkCycle(t, vio)
		if got := fmt.Sprint(vio.Cycle); got != tc.want {
			t.Errorf("%s: cycle %s, want %s", tc.name, got, tc.want)
		}
	}
}
