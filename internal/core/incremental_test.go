package core

import (
	"fmt"
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
					f.Name, lvl, batch.OK, incr.OK, batch.Explain(), incr.Explain())
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
		t.Fatalf("parked read must not fail yet: %s", vio.Explain())
	}
	if vio := inc.Add(history.Txn{Session: 1, Committed: true, Ops: []history.Op{history.R("x", 0), history.W("x", 7)}}); vio != nil {
		t.Fatalf("writer arrival must resolve cleanly: %s", vio.Explain())
	}
	r := inc.Finalize()
	if !r.OK {
		t.Fatalf("want OK, got %s", r.Explain())
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
		t.Fatalf("want ThinAirRead, got %s", r.Explain())
	}

	// Aborted read: the writer of 5 aborted.
	b = history.NewBuilder("x")
	b.AbortedTxn(0, history.R("x", 0), history.W("x", 5))
	b.Txn(1, history.R("x", 5))
	h = b.Build()
	r = replay(h, SI, 0)
	if r.OK || len(r.Anomalies) == 0 || r.Anomalies[0].Kind != history.AbortedRead {
		t.Fatalf("want AbortedRead, got %s", r.Explain())
	}
}

// TestOnlineTopoCycle exercises graph.Online directly: inversions reorder,
// a closing edge reports the cycle.
func TestOnlineTopoCycle(t *testing.T) {
	o := graph.NewOnline()
	for i := 0; i < 4; i++ {
		o.AddNode()
	}
	edges := []graph.Edge{
		{From: 2, To: 3, Kind: graph.SO},
		{From: 3, To: 1, Kind: graph.WR}, // inversion: reorders
		{From: 1, To: 0, Kind: graph.WW}, // inversion: reorders
	}
	for _, e := range edges {
		if cy := o.AddEdge(e); cy != nil {
			t.Fatalf("unexpected cycle at %v: %v", e, cy)
		}
	}
	cy := o.AddEdge(graph.Edge{From: 0, To: 2, Kind: graph.RW})
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
	if cy := o.AddEdge(graph.Edge{From: 0, To: 0, Kind: graph.SO}); len(cy) != 1 {
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
	var edges []graph.Edge
	for step := n - 1; step >= 1; step-- {
		for u := 0; u+step < n; u += 7 {
			edges = append(edges, graph.Edge{From: u + step, To: u, Kind: graph.SO})
		}
	}
	for _, e := range edges {
		if cy := o.AddEdge(e); cy != nil {
			t.Fatalf("DAG edge %v reported cycle %v", e, cy)
		}
		for v := 0; v < n; v++ {
			for _, oe := range o.Out(v) {
				if o.Ord(oe.From) >= o.Ord(oe.To) {
					t.Fatalf("order invariant broken after %v: %v (ord %d >= %d)",
						e, oe, o.Ord(oe.From), o.Ord(oe.To))
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
