package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"mtc/internal/graph"
	"mtc/internal/history"
)

// check runs the batch pipeline on h. Under a background context the
// only error CheckCtx can return is a level without a batch engine.
func check(h *history.History, lvl Level) Result {
	r, err := CheckCtx(context.Background(), history.NewIndex(h), lvl)
	if err != nil {
		panic(err)
	}
	return r
}

// rung runs the pipeline without the pre-check: one derivation of h,
// then the rung for lvl.
func rung(h *history.History, lvl Level) Result {
	d, err := BuildDependencyCtx(context.Background(), history.NewIndex(h))
	if err != nil {
		panic(err)
	}
	r, err := d.Rung(context.Background(), lvl)
	if err != nil {
		panic(err)
	}
	return r
}

// replay runs the online engine over h (window 0 = unbounded).
func replay(h *history.History, lvl Level, window int) Result {
	r, _ := CheckIncrementalWindowedCtx(context.Background(), h, lvl, window)
	return r
}

func TestFixtureVerdicts(t *testing.T) {
	for _, f := range history.Fixtures() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			if got := check(f.H, SSER); got.OK != !f.ViolatesSSER {
				t.Errorf("SSER: OK=%v, want %v\n%s", got.OK, !f.ViolatesSSER, got.Explain())
			}
			if got := check(f.H, SER); got.OK != !f.ViolatesSER {
				t.Errorf("SER: OK=%v, want %v\n%s", got.OK, !f.ViolatesSER, got.Explain())
			}
			if got := check(f.H, SI); got.OK != !f.ViolatesSI {
				t.Errorf("SI: OK=%v, want %v\n%s", got.OK, !f.ViolatesSI, got.Explain())
			}
		})
	}
}

func TestSerialHistoryPassesAllLevels(t *testing.T) {
	h := history.SerialHistory(50, "x", "y", "z")
	for _, lvl := range []Level{SSER, SER, SI} {
		if r := check(h, lvl); !r.OK {
			t.Fatalf("serial history must satisfy %s: %s", lvl, r.Explain())
		}
	}
}

// sserOnlyViolation builds a history that satisfies SER and SI but
// violates SSER: T1 commits strictly before T2 starts, yet T2 misses T1's
// write.
func sserOnlyViolation() *history.History {
	b := history.NewBuilder("x")
	b.TimedTxn(0, 10, 20, history.R("x", 0), history.W("x", 1)) // T1
	b.TimedTxn(1, 30, 40, history.R("x", 0))                    // T2 reads stale 0
	return b.Build()
}

func TestSSEROnlyViolation(t *testing.T) {
	h := sserOnlyViolation()
	if r := check(h, SER); !r.OK {
		t.Fatalf("must satisfy SER: %s", r.Explain())
	}
	if r := check(h, SI); !r.OK {
		t.Fatalf("must satisfy SI: %s", r.Explain())
	}
	r := check(h, SSER)
	if r.OK {
		t.Fatal("must violate SSER")
	}
	if len(r.Cycle) == 0 {
		t.Fatal("want counterexample cycle")
	}
	hasRT := false
	for _, e := range r.Cycle {
		if e.Kind == graph.RT {
			hasRT = true
		}
	}
	if !hasRT {
		t.Fatalf("counterexample should involve RT: %v", r.Cycle)
	}
}

// sserReference decides SSER by the paper's definition: the dependency
// graph plus every real-time edge (history.RealTimeOrder) is acyclic.
func sserReference(h *history.History) bool {
	g, _ := BuildDependency(h, true)
	return g.Acyclic()
}

// assertSSERMatchesReference checks the SSER rung against the
// definitional graph, and the shape of its witness: a closed cycle of
// real dependency edges, closed — unless it is a plain SER cycle — by
// exactly one RT edge whose endpoints are inverted on the raw stamps.
func assertSSERMatchesReference(t *testing.T, h *history.History, tag string) {
	t.Helper()
	r := rung(h, SSER)
	if want := sserReference(h); r.OK != want {
		t.Fatalf("%s: SSER rung OK=%v, reference graph acyclic=%v\n%s", tag, r.OK, want, r.Explain())
	}
	if again := rung(h, SSER); !reflect.DeepEqual(again, r) {
		t.Fatalf("%s: SSER result is not deterministic\n%s\n%s", tag, r.Explain(), again.Explain())
	}
	ser := rung(h, SER)
	if r.NumEdges != ser.NumEdges {
		t.Fatalf("%s: SSER counts %d edges, SER %d", tag, r.NumEdges, ser.NumEdges)
	}
	if r.OK != (len(r.Cycle) == 0) {
		t.Fatalf("%s: OK=%v with cycle %v", tag, r.OK, r.Cycle)
	}
	if r.OK {
		return
	}
	if !ser.OK {
		if !reflect.DeepEqual(r.Cycle, ser.Cycle) {
			t.Fatalf("%s: SSER witness %v is not the SER cycle %v", tag, r.Cycle, ser.Cycle)
		}
		return
	}
	g, _ := BuildDependency(h, false)
	rts := 0
	for i, e := range r.Cycle {
		if next := r.Cycle[(i+1)%len(r.Cycle)]; e.To != next.From {
			t.Fatalf("%s: witness is not a closed cycle: %v", tag, r.Cycle)
		}
		switch {
		case e.Kind == graph.RT:
			rts++
			if a, b := h.Txns[e.From], h.Txns[e.To]; !a.Timed() || !b.Timed() || a.Finish >= b.Start {
				t.Fatalf("%s: RT edge %v is not real: T%d=[%d,%d] T%d=[%d,%d]",
					tag, e, a.ID, a.Start, a.Finish, b.ID, b.Start, b.Finish)
			}
		case !slices.ContainsFunc(g.Out(e.From), func(d graph.Edge) bool { return d.To == e.To && d.Kind == e.Kind }):
			t.Fatalf("%s: witness edge %v is not a dependency edge", tag, e)
		}
	}
	if last := r.Cycle[len(r.Cycle)-1]; rts != 1 || last.Kind != graph.RT {
		t.Fatalf("%s: want a dependency path closed by one RT edge, got %v", tag, r.Cycle)
	}
}

// sserEdgeCases are the shapes the real-time predicate must get right:
// a tie (Finish == Start is not precedence), untimed and aborted
// transactions (outside the order), and a history without ⊥T.
func sserEdgeCases() map[string]*history.History {
	cases := map[string]*history.History{"sser-only": sserOnlyViolation()}
	stale := func(start, finish int64, committed bool) *history.History {
		b := history.NewBuilder("x")
		b.TimedTxn(0, 10, 20, history.R("x", 0), history.W("x", 1))
		if committed {
			b.TimedTxn(1, start, finish, history.R("x", 0))
		} else {
			b.TimedAbortedTxn(1, start, finish, history.R("x", 0))
		}
		return b.Build()
	}
	cases["tie"] = stale(20, 30, true)       // starts at T1's finish: concurrent
	cases["after-tie"] = stale(21, 30, true) // one tick later: inverted
	cases["untimed-reader"] = stale(0, 0, true)
	cases["aborted-reader"] = stale(30, 40, false)
	cases["instant"] = stale(30, 30, true) // Start == Finish still orders
	initless := &history.History{
		Txns: []history.Txn{
			{ID: 0, Session: 0, Start: 10, Finish: 20, Committed: true, Ops: []history.Op{history.W("x", 1)}},
			{ID: 1, Session: 1, Start: 30, Finish: 40, Committed: true, Ops: []history.Op{history.R("x", 1), history.W("x", 2)}},
			{ID: 2, Session: 2, Start: 50, Finish: 60, Committed: true, Ops: []history.Op{history.R("x", 1)}},
		},
		Sessions: [][]int{{0}, {1}, {2}},
	}
	cases["init-less"] = initless
	return cases
}

func TestSSERMatchesReferenceOnFixturesAndEdgeCases(t *testing.T) {
	for _, f := range history.Fixtures() {
		assertSSERMatchesReference(t, f.H, f.Name)
	}
	assertSSERMatchesReference(t, history.SerialHistory(40, "x", "y"), "serial")
	want := map[string]bool{
		"sser-only": false, "tie": true, "after-tie": false, "untimed-reader": true,
		"aborted-reader": true, "instant": false, "init-less": false,
	}
	for name, h := range sserEdgeCases() {
		if err := h.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSSERMatchesReference(t, h, name)
		if got := check(h, SSER).OK; got != want[name] {
			t.Errorf("%s: SSER OK=%v, want %v", name, got, want[name])
		}
	}
}

func TestDivergenceEarlyExit(t *testing.T) {
	f := history.FixtureByName("LostUpdate")
	r := check(f.H, SI)
	if r.OK {
		t.Fatal("LostUpdate must violate SI")
	}
	if r.Divergence == nil {
		t.Fatalf("want DIVERGENCE witness, got %s", r.Explain())
	}
	d := *r.Divergence
	if d.Key != "x" || d.Writer != 0 {
		t.Fatalf("unexpected witness %+v", d)
	}
	if !strings.Contains(d.String(), "DIVERGENCE") {
		t.Fatalf("witness string %q", d.String())
	}
}

func TestWriteSkewSICounterexampleAbsent(t *testing.T) {
	f := history.FixtureByName("WriteSkew")
	r := check(f.H, SI)
	if !r.OK {
		t.Fatalf("WriteSkew satisfies SI: %s", r.Explain())
	}
	rs := check(f.H, SER)
	if rs.OK || len(rs.Cycle) == 0 {
		t.Fatalf("WriteSkew violates SER with a cycle: %s", rs.Explain())
	}
	// The classic write-skew counterexample has two RW edges.
	rwCount := 0
	for _, e := range rs.Cycle {
		if e.Kind == graph.RW {
			rwCount++
		}
	}
	if rwCount < 2 {
		t.Fatalf("expected >=2 RW edges in write-skew cycle, got %v", rs.Cycle)
	}
}

func TestCycleContiguity(t *testing.T) {
	for _, f := range history.Fixtures() {
		for _, r := range []Result{check(f.H, SER), check(f.H, SI)} {
			for i := 1; i < len(r.Cycle); i++ {
				if r.Cycle[i-1].To != r.Cycle[i].From {
					t.Fatalf("%s: cycle not contiguous: %v", f.Name, r.Cycle)
				}
			}
			if len(r.Cycle) > 0 && r.Cycle[len(r.Cycle)-1].To != r.Cycle[0].From {
				t.Fatalf("%s: cycle not closed: %v", f.Name, r.Cycle)
			}
		}
	}
}

func TestBuildDependencyEdgeCounts(t *testing.T) {
	// The MT dependency graph must stay linear in n (Section IV-D).
	h := history.SerialHistory(500, "a", "b", "c", "d")
	g, divs := BuildDependency(h, false)
	if len(divs) != 0 {
		t.Fatalf("serial history has no divergence, got %v", divs)
	}
	if g.NumEdges() > 6*len(h.Txns) {
		t.Fatalf("edge count %d not linear in n=%d", g.NumEdges(), len(h.Txns))
	}
}

func TestPreCheckShortCircuits(t *testing.T) {
	f := history.FixtureByName("AbortedRead")
	r := check(f.H, SER)
	if r.OK || len(r.Anomalies) == 0 {
		t.Fatalf("pre-check should reject: %s", r.Explain())
	}
	if len(r.Cycle) != 0 {
		t.Fatal("no cycle expected when pre-check fails")
	}
}

func TestCheckCtxRejectsLevelsWithoutBatchEngine(t *testing.T) {
	ix := history.NewIndex(history.SerialHistory(1))
	for _, lvl := range []Level{"BOGUS", RC, RA, CAUSAL} {
		if _, err := CheckCtx(context.Background(), ix, lvl); err == nil {
			t.Fatalf("level %q: want an error, not a verdict (or a panic)", lvl)
		}
	}
}

func TestExplainOutput(t *testing.T) {
	ok := check(history.SerialHistory(3), SER)
	if !strings.Contains(ok.Explain(), "satisfies SER") {
		t.Fatalf("Explain = %q", ok.Explain())
	}
	bad := check(history.FixtureByName("LostUpdate").H, SI)
	if !strings.Contains(bad.Explain(), "VIOLATES SI") || !strings.Contains(bad.Explain(), "DIVERGENCE") {
		t.Fatalf("Explain = %q", bad.Explain())
	}
	cyc := check(history.FixtureByName("WriteSkew").H, SER)
	if !strings.Contains(cyc.Explain(), "cycle:") {
		t.Fatalf("Explain = %q", cyc.Explain())
	}
}

// randomSerialMTHistory builds a history by executing randomly generated
// MTs serially against an in-test register map, assigning each to a random
// session and stamping real times in execution order. Such histories
// satisfy SSER, SER and SI by construction.
func randomSerialMTHistory(rng *rand.Rand, n, sessions, keys int) *history.History {
	keyNames := make([]history.Key, keys)
	for i := range keyNames {
		keyNames[i] = history.Key(string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	b := history.NewBuilder(keyNames...)
	state := map[history.Key]history.Value{}
	for _, k := range keyNames {
		state[k] = 0
	}
	next := history.Value(1)
	var ts int64 = 100
	for i := 0; i < n; i++ {
		k1 := keyNames[rng.Intn(keys)]
		k2 := keyNames[rng.Intn(keys)]
		var ops []history.Op
		switch rng.Intn(4) {
		case 0: // read-only single
			ops = []history.Op{history.R(k1, state[k1])}
		case 1: // RMW single
			ops = []history.Op{history.R(k1, state[k1]), history.W(k1, next)}
			state[k1] = next
			next++
		case 2: // read two
			if k2 == k1 {
				ops = []history.Op{history.R(k1, state[k1])}
			} else {
				ops = []history.Op{history.R(k1, state[k1]), history.R(k2, state[k2])}
			}
		default: // double RMW
			if k2 == k1 {
				ops = []history.Op{history.R(k1, state[k1]), history.W(k1, next)}
				state[k1] = next
				next++
			} else {
				v1, v2 := next, next+1
				next += 2
				ops = []history.Op{
					history.R(k1, state[k1]), history.W(k1, v1),
					history.R(k2, state[k2]), history.W(k2, v2),
				}
				state[k1], state[k2] = v1, v2
			}
		}
		b.TimedTxn(rng.Intn(sessions), ts, ts+3, ops...)
		ts += 5
	}
	return b.Build()
}

func TestPropertySerialMTHistoriesPassEverything(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomSerialMTHistory(rng, 30+rng.Intn(70), 1+rng.Intn(5), 1+rng.Intn(6))
		if err := history.ValidateMT(h); err != nil {
			t.Logf("not MT: %v", err)
			return false
		}
		return check(h, SSER).OK && check(h, SER).OK && check(h, SI).OK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// corruptRead rewires one external read to an older version of the key,
// which generically produces a stale read that SSER must reject.
func corruptRead(rng *rand.Rand, h *history.History) bool {
	ix := history.NewIndex(h)
	// Collect candidate (txn, op) positions: external reads with an
	// alternative value available.
	type pos struct{ txn, op int }
	var candidates []pos
	for i := range h.Txns {
		t := &h.Txns[i]
		if !t.Committed || (h.HasInit && i == 0) {
			continue
		}
		for j, op := range t.Ops {
			if op.Kind == history.OpRead {
				candidates = append(candidates, pos{i, j})
			}
		}
	}
	if len(candidates) == 0 {
		return false
	}
	p := candidates[rng.Intn(len(candidates))]
	op := h.Txns[p.txn].Ops[p.op]
	// Find a different committed value on the same key.
	k, _ := ix.KeyIDOf(op.Key)
	for _, w := range ix.WritersOf(k) {
		if v, ok := ix.WriteVal(int(w), k); ok && v != op.Value && int(w) != p.txn {
			h.Txns[p.txn].Ops[p.op].Value = v
			return true
		}
	}
	return false
}

func TestPropertyCorruptedHistoriesRejectedBySSER(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomSerialMTHistory(rng, 40, 3, 3)
		if !corruptRead(rng, h) {
			return true // nothing to corrupt; vacuous
		}
		// A corrupted read can surface as a pre-check anomaly or as a
		// dependency cycle; either way SSER must reject because the read
		// is stale relative to real time... unless the corrupted read
		// happens to still be the most recent committed value in a
		// twice-read key, in which case INT catches it. Accept any
		// rejection; require only that verdicts stay internally sane:
		// SSER violation whenever SER is violated.
		sser := check(h, SSER)
		ser := check(h, SER)
		if !ser.OK && sser.OK {
			return false // SER violation implies SSER violation
		}
		si := check(h, SI)
		_ = si
		return !sser.OK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLevelImplications(t *testing.T) {
	// On arbitrary (possibly corrupted) MT histories: SSER ⊆ SER; and a
	// SER-satisfying history always satisfies SI (SER is stronger).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomSerialMTHistory(rng, 30, 3, 3)
		for k := 0; k < 3; k++ {
			corruptRead(rng, h)
		}
		sser, ser, si := check(h, SSER), check(h, SER), check(h, SI)
		if sser.OK && !ser.OK {
			return false
		}
		if ser.OK && !si.OK {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySSERMatchesReference: on random MT histories — stale reads
// injected, stamps perturbed into ties, instants, untimed gaps and
// real-time inversions — the
// rung agrees with the definitional Θ(n²) graph and its witness is
// well-formed.
func TestPropertySSERMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomSerialMTHistory(rng, 30, 3, 3)
		if rng.Intn(4) == 0 {
			corruptRead(rng, h)
		}
		for i := 1; i < len(h.Txns); i++ {
			switch tx := &h.Txns[i]; rng.Intn(16) {
			case 0, 1:
				tx.Start, tx.Finish = 0, 0
			case 2, 3:
				tx.Finish = tx.Start
			case 4, 5:
				tx.Finish += 2 // onto the next transaction's start
			case 6: // warp later: its dependents now finish before it starts
				d := 5 * int64(rng.Intn(8))
				tx.Start, tx.Finish = tx.Start+d, tx.Finish+d
			}
		}
		assertSSERMatchesReference(t, h, fmt.Sprintf("seed %d", seed))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
