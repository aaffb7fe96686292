package core

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mtc/internal/graph"
	"mtc/internal/history"
)

// TestIncrementalFixturesParity replays every anomaly fixture through the
// online checker and demands the batch verdict, at both levels.
func TestIncrementalFixturesParity(t *testing.T) {
	for _, f := range history.Fixtures() {
		for _, lvl := range []Level{SER, SI} {
			batch := check(f.H, lvl)
			incr := replay(f.H, lvl, 0)
			if batch.OK != incr.OK {
				t.Errorf("%s/%s: batch OK=%v, incremental OK=%v\nbatch: %s\nincr: %s",
					f.Name, lvl, batch.OK, incr.OK, batch.Witness(), incr.Witness())
			}
			if batch.OK && incr.OK && batch.NumEdges != incr.NumEdges {
				t.Errorf("%s/%s: edge count diverged: batch %d, incremental %d",
					f.Name, lvl, batch.NumEdges, incr.NumEdges)
			}
		}
	}
}

// TestIncrementalDetectsMidStream feeds a divergent prefix followed by
// clean transactions: the violation must surface at the offending Add,
// not at Finalize.
func TestIncrementalDetectsMidStream(t *testing.T) {
	b := history.NewBuilder("x")
	b.Txn(0, history.R("x", 0), history.W("x", 1)) // T1 RMW of init
	b.Txn(1, history.R("x", 0), history.W("x", 2)) // T2 RMW of the same version: divergence
	b.Txn(0, history.R("x", 1))
	h := b.Build()

	inc := NewIncremental(SI)
	var vio *Result
	for i := range h.Txns {
		isInit := h.HasInit && i == 0
		var r *Result
		if isInit {
			r = inc.InitTxn("x")
		} else {
			r = inc.Add(h.Txns[i])
		}
		if r != nil {
			vio = r
			if i != 2 {
				t.Fatalf("violation surfaced at txn %d, want 2", i)
			}
			break
		}
	}
	if vio == nil || vio.Divergence == nil {
		t.Fatalf("want mid-stream divergence, got %+v", vio)
	}
	if got := inc.Finalize(); got.OK {
		t.Fatal("Finalize after violation must keep the verdict")
	}
}

// TestIncrementalPendingReadResolution checks the parked-read path: a
// reader arriving before its writer (commit-order inversion, as a
// streaming channel may deliver) must still connect correctly.
func TestIncrementalPendingReadResolution(t *testing.T) {
	inc := NewIncremental(SER)
	inc.InitTxn("x")
	// Reader of value 7 arrives before the writer of 7.
	if vio := inc.Add(history.Txn{Session: 0, Committed: true, Ops: []history.Op{history.R("x", 7)}}); vio != nil {
		t.Fatalf("parked read must not fail yet: %s", vio.Witness())
	}
	if vio := inc.Add(history.Txn{Session: 1, Committed: true, Ops: []history.Op{history.R("x", 0), history.W("x", 7)}}); vio != nil {
		t.Fatalf("writer arrival must resolve cleanly: %s", vio.Witness())
	}
	r := inc.Finalize()
	if !r.OK {
		t.Fatalf("want OK, got %s", r.Witness())
	}
	// 1 SO edge per session head + WR init->reader + WR/WW init->writer.
	if r.NumEdges == 0 {
		t.Fatal("expected dependency edges")
	}
}

// TestIncrementalThinAirAndAborted classifies unresolved reads exactly as
// the batch pre-check.
func TestIncrementalThinAirAndAborted(t *testing.T) {
	// Thin-air: nobody ever writes 99.
	b := history.NewBuilder("x")
	b.Txn(0, history.R("x", 99))
	h := b.Build()
	r := replay(h, SER, 0)
	if r.OK || len(r.Anomalies) == 0 || r.Anomalies[0].Kind != history.ThinAirRead {
		t.Fatalf("want ThinAirRead, got %+v", r)
	}

	// Aborted read: the writer of 5 aborted.
	b = history.NewBuilder("x")
	b.AbortedTxn(0, history.R("x", 0), history.W("x", 5))
	b.Txn(1, history.R("x", 5))
	h = b.Build()
	r = replay(h, SI, 0)
	if r.OK || len(r.Anomalies) == 0 || r.Anomalies[0].Kind != history.AbortedRead {
		t.Fatalf("want AbortedRead, got %+v", r)
	}
}

// TestRemapResultLeavesTheVerdictAlone: Finalize hands out copies of one
// stored verdict, and remapping a copy must change neither the verdict
// nor the copies handed out before it.
func TestRemapResultLeavesTheVerdictAlone(t *testing.T) {
	inc := NewIncremental(SER)
	inc.InitTxn("x")
	inc.Add(history.Txn{Session: 0, Committed: true, Ops: []history.Op{history.R("x", 99)}}) // thin air
	perm := []int{1, 0}
	first := RemapResult(inc.Finalize(), perm)
	second := RemapResult(inc.Finalize(), perm)
	for i, r := range []Result{first, second} {
		if len(r.Anomalies) != 1 || r.Anomalies[0].Kind != history.ThinAirRead || r.Anomalies[0].Txn != 0 {
			t.Fatalf("remapped verdict %d: %+v, want ThinAirRead in T0", i+1, r.Anomalies)
		}
	}
	if got := inc.Finalize().Anomalies[0].Txn; got != 1 {
		t.Fatalf("the stored verdict names T%d after two remaps, want T1", got)
	}
}

// TestCycleRendersObjectNames: a cycle leaves the engine with each arc's
// key named through the key table, a composed SI edge with a witness
// expanded into it, and the reserved objects spelled as reports always
// spelled them.
func TestCycleRendersObjectNames(t *testing.T) {
	inc := NewIncremental(SI)
	inc.InitTxn("x", "y")
	y := inc.keyIDs["y"]
	inc.witness = map[composedKey][2]graph.Arc{{2, 0}: {{From: 2, To: 1, Obj: y, Kind: graph.WW}, {From: 1, To: 0, Obj: y, Kind: graph.RW}}}
	got := fmt.Sprint(inc.expandComposed([]graph.Arc{
		{From: 0, To: 1, Obj: epochObj, Kind: graph.AUX},
		{From: 1, To: 2, Obj: graph.NoObj, Kind: graph.SO},
		{From: 2, To: 0, Obj: composedObj, Kind: graph.AUX},
		{From: 0, To: 3, Obj: composedObj, Kind: graph.AUX}, // its witness was compacted away
	}))
	if want := "[T0 -AUX(epoch)-> T1 T1 -SO-> T2 T2 -WW(y)-> T1 T1 -RW(y)-> T0 T0 -AUX((;RW))-> T3]"; got != want {
		t.Fatalf("rendered %s, want %s", got, want)
	}
}

// txnSlice is a TxnStream over a history's transactions.
type txnSlice []history.Txn

func (s *txnSlice) DeclaredSessions() int { return 0 }

func (s *txnSlice) Next() (history.Txn, error) {
	if len(*s) == 0 {
		return history.Txn{}, io.EOF
	}
	t := (*s)[0]
	*s = (*s)[1:]
	return t, nil
}

// TestWindowedStreamReusesKeyIDs: a windowed stream forgets the keys it
// met only in aborted writes, and their ids go to the keys it meets next.
// A lost update on such a key, whose arcs name a reused id, reads exactly
// as the batch checker reports it.
func TestWindowedStreamReusesKeyIDs(t *testing.T) {
	const window = 16
	b := history.NewBuilder("hot")
	for i := 1; i <= 10*window; i++ {
		b.Txn(0, history.R("hot", history.Value(i-1)), history.W("hot", history.Value(i)))
		b.AbortedTxn(1, history.W(history.Key(fmt.Sprintf("fresh%d", i)), 1))
	}
	late := b.Txn(2, history.W("late", 1))
	b.Txn(0, history.R("late", 1), history.W("late", 2))
	b.Txn(1, history.R("late", 1), history.W("late", 3))
	h := b.Build()
	for _, lvl := range []Level{SER, SI} {
		batch := check(h, lvl)
		src := txnSlice(h.Txns)
		stream, err := CheckStreamCtx(context.Background(), &src, lvl, window, 0)
		if err != nil {
			t.Fatal(err)
		}
		if stream.OK || batch.OK || !reflect.DeepEqual(stream.Cycle, batch.Cycle) {
			t.Fatalf("%s: stream cycle %v, batch cycle %v", lvl, stream.Cycle, batch.Cycle)
		}

		// The same stream by hand, to see the ids.
		inc := NewIncremental(lvl)
		var free []int32
		for i, txn := range h.Txns {
			if i == late {
				free = slices.Clone(inc.freeKeys)
			}
			if txn.Session >= 0 {
				inc.ExpectSession(txn.Session)
			}
			if inc.add(txn, i == 0 && txn.Session < 0) != nil {
				break
			}
			inc.MaybeCompact(window, 0, nil)
		}
		if len(inc.keys) > 4*window {
			t.Errorf("%s: %d key ids for %d keys met", lvl, len(inc.keys), 2+10*window)
		}
		if id := inc.keyIDs["late"]; !slices.Contains(free, id) {
			t.Fatalf("%s: late took id %d, not one of the %d given back", lvl, id, len(free))
		}
		if got := inc.Finalize(); !reflect.DeepEqual(got, stream) {
			t.Fatalf("%s: by hand %+v, CheckStreamCtx %+v", lvl, got, stream)
		}
	}
}

// TestOnlineTopoCycle exercises graph.Online directly: inversions reorder,
// a closing edge reports the cycle.
func TestOnlineTopoCycle(t *testing.T) {
	o := graph.NewOnline()
	for i := 0; i < 4; i++ {
		o.AddNode()
	}
	edges := []graph.Arc{
		{From: 2, To: 3, Kind: graph.SO},
		{From: 3, To: 1, Kind: graph.WR}, // inversion: reorders
		{From: 1, To: 0, Kind: graph.WW}, // inversion: reorders
	}
	for _, e := range edges {
		if cy := o.AddEdge(e); cy != nil {
			t.Fatalf("unexpected cycle at %v: %v", e, cy)
		}
	}
	cy := o.AddEdge(graph.Arc{From: 0, To: 2, Kind: graph.RW})
	if cy == nil {
		t.Fatal("edge 0->2 closes 0->2->3->1->0, want cycle")
	}
	// The cycle must be well-formed: consecutive edges chain, and it
	// closes on itself.
	for i, e := range cy {
		next := cy[(i+1)%len(cy)]
		if e.To != next.From {
			t.Fatalf("broken cycle chain at %d: %v", i, cy)
		}
	}
}

// TestOnlineTopoSelfLoop reports single-edge cycles.
func TestOnlineTopoSelfLoop(t *testing.T) {
	o := graph.NewOnline()
	o.AddNode()
	if cy := o.AddEdge(graph.Arc{From: 0, To: 0, Kind: graph.SO}); len(cy) != 1 {
		t.Fatalf("want self-loop cycle, got %v", cy)
	}
}

// TestOnlineTopoOrderInvariant floods the structure with random-ish
// acyclic edges (all oriented low->high node) inserted in adversarial
// order and verifies ord stays a valid topological order.
func TestOnlineTopoOrderInvariant(t *testing.T) {
	o := graph.NewOnline()
	const n = 60
	for i := 0; i < n; i++ {
		o.AddNode()
	}
	// Insert edges of a known DAG in an order that forces many reorders:
	// long back-to-front batches.
	// All edges run from higher to lower node index (a DAG whose
	// topological order reverses creation order), so every early
	// insertion inverts the maintained order and triggers a reorder.
	var edges []graph.Arc
	for step := n - 1; step >= 1; step-- {
		for u := 0; u+step < n; u += 7 {
			edges = append(edges, graph.Arc{From: int32(u + step), To: int32(u), Kind: graph.SO})
		}
	}
	for _, e := range edges {
		if cy := o.AddEdge(e); cy != nil {
			t.Fatalf("DAG edge %v reported cycle %v", e, cy)
		}
		for v := 0; v < n; v++ {
			for _, oe := range o.Out(v) {
				if o.Ord(int(oe.From)) >= o.Ord(int(oe.To)) {
					t.Fatalf("order invariant broken after %v: %v (ord %d >= %d)",
						e, oe, o.Ord(int(oe.From)), o.Ord(int(oe.To)))
				}
			}
		}
	}
}

func ExampleIncremental() {
	inc := NewIncremental(SER)
	inc.InitTxn("x", "y")
	inc.Add(history.Txn{Session: 0, Committed: true, Ops: []history.Op{history.R("x", 0), history.W("x", 1)}})
	// A second read-modify-write of the same version: lost update, an RW
	// cycle under SER, caught at this very Add.
	vio := inc.Add(history.Txn{Session: 1, Committed: true, Ops: []history.Op{history.R("x", 0), history.W("x", 2)}})
	fmt.Println(vio == nil)
	// Output: false
}

// TestVersionTableMatchesMap holds the version table to a map under
// random put/get/del sequences over few enough versions that probe runs
// collide: the table doubles mid-run, deletions shift back runs that
// wrap past the end of the array, and freed record ids are handed out
// again, as Incremental's free list does.
func TestVersionTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	wrapped, reused := 0, 0
	for round := 0; round < 10; round++ {
		var recs graph.Slab[slot]
		var free []int32
		tab, model := newVersionTable(), map[version]int32{}
		for step := 0; step < 20000; step++ {
			key := version{int32(rng.Intn(4)), history.Value(rng.Intn(10 << round))}
			cell, id := tab.find(&recs, key)
			if id != model[key] {
				t.Fatalf("round %d step %d: %v found %d, the map holds %d", round, step, key, id, model[key])
			}
			del := rng.Intn(4) == 0 // a quarter of the hits while the table fills,
			if step%5000 >= 2500 {  // three quarters while it drains
				del = !del
			}
			switch {
			case id == 0: // a miss ends at an empty cell: insert there
				if n := len(free); n > 0 {
					id, free = free[n-1], free[:n-1]
					reused++
				} else {
					id, _ = recs.Alloc()
				}
				*recs.At(id) = slot{key: key}
				tab.put(&recs, cell, id)
				model[key] = id
			case del:
				end := cell
				for tab.cells[end] != 0 {
					end = (end + 1) & (len(tab.cells) - 1)
				}
				if end < cell {
					wrapped++
				}
				if got := tab.del(&recs, recs.At(id)); got != id {
					t.Fatalf("round %d step %d: del(%v) returned %d, want %d", round, step, key, got, id)
				}
				delete(model, key)
				free = append(free, id)
			}
		}
		if tab.n != len(model) {
			t.Fatalf("round %d: table counts %d versions, the map %d", round, tab.n, len(model))
		}
		for key, want := range model {
			if _, id := tab.find(&recs, key); id != want {
				t.Fatalf("round %d: %v found %d, the map holds %d", round, key, id, want)
			}
		}
	}
	if wrapped == 0 || reused == 0 {
		t.Fatalf("%d deletions in runs wrapping the array's end, %d reused ids: the sequences are too tame", wrapped, reused)
	}
}

// TestVersionTableProbeLength: at load ½ a version sits 1.5 probes from
// its home on average (linear probing's expectation) whatever the shape
// of the values — one key's values in arithmetic progressions, which
// plain multiply-shift piles into long runs, or one value over many keys.
func TestVersionTableProbeLength(t *testing.T) {
	const n = 1 << 12
	type shape struct {
		name string
		at   func(i int) version
	}
	shapes := []shape{{"one value, many keys", func(i int) version { return version{int32(i), 7} }}}
	for _, stride := range []int64{1, 3, 1 << 8, 1 << 16, 1 << 32, 1 << 40} {
		shapes = append(shapes, shape{fmt.Sprintf("stride %d", stride), func(i int) version { return version{0, history.Value(int64(i) * stride)} }})
	}
	for _, sh := range shapes {
		var recs graph.Slab[slot]
		tab := newVersionTable()
		for i := 0; i < n; i++ {
			cell, _ := tab.find(&recs, sh.at(i))
			id, r := recs.Alloc()
			*r = slot{key: sh.at(i)}
			tab.put(&recs, cell, id)
		}
		if 2*tab.n != len(tab.cells) {
			t.Fatalf("%s: %d versions in %d cells, not load 1/2", sh.name, tab.n, len(tab.cells))
		}
		probes, mask := 0, len(tab.cells)-1
		for i, id := range tab.cells {
			if id != 0 {
				probes += (i-tab.home(recs.At(id).key))&mask + 1
			}
		}
		mean := float64(probes) / n
		t.Logf("%s: mean probe %.2f", sh.name, mean)
		if mean > 2 {
			t.Errorf("%s: mean probe %.2f at load 1/2, want <= 2", sh.name, mean)
		}
	}
}
