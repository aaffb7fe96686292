package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mtc/internal/graph"
	"mtc/internal/history"
)

// check runs the batch pipeline on h. Under a background context the
// only error CheckCtx can return is a level without a batch engine.
func check(h *history.History, lvl Level, opts Options) Result {
	r, err := CheckCtx(context.Background(), history.NewIndex(h), lvl, opts)
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
			if got := check(f.H, SSER, Options{}); got.OK != !f.ViolatesSSER {
				t.Errorf("SSER: OK=%v, want %v\n%s", got.OK, !f.ViolatesSSER, got.Explain())
			}
			if got := check(f.H, SER, Options{}); got.OK != !f.ViolatesSER {
				t.Errorf("SER: OK=%v, want %v\n%s", got.OK, !f.ViolatesSER, got.Explain())
			}
			if got := check(f.H, SI, Options{}); got.OK != !f.ViolatesSI {
				t.Errorf("SI: OK=%v, want %v\n%s", got.OK, !f.ViolatesSI, got.Explain())
			}
		})
	}
}

func TestSerialHistoryPassesAllLevels(t *testing.T) {
	h := history.SerialHistory(50, "x", "y", "z")
	for _, lvl := range []Level{SSER, SER, SI} {
		if r := check(h, lvl, Options{}); !r.OK {
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
	if r := check(h, SER, Options{}); !r.OK {
		t.Fatalf("must satisfy SER: %s", r.Explain())
	}
	if r := check(h, SI, Options{}); !r.OK {
		t.Fatalf("must satisfy SI: %s", r.Explain())
	}
	r := check(h, SSER, Options{})
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

func TestSparseRTAgreesOnFixturesAndSerial(t *testing.T) {
	agree := func(h *history.History) {
		t.Helper()
		dense := check(h, SSER, Options{SkipPreCheck: true})
		sparse := check(h, SSER, Options{SkipPreCheck: true, SparseRT: true})
		if dense.OK != sparse.OK {
			t.Fatalf("dense=%v sparse=%v\ndense: %s\nsparse: %s", dense.OK, sparse.OK, dense.Explain(), sparse.Explain())
		}
	}
	for _, f := range history.Fixtures() {
		agree(f.H)
	}
	agree(history.SerialHistory(40, "x", "y"))
	agree(sserOnlyViolation())
}

func TestSparseRTCounterexampleCompressed(t *testing.T) {
	r := check(sserOnlyViolation(), SSER, Options{SparseRT: true})
	if r.OK {
		t.Fatal("must violate SSER")
	}
	for _, e := range r.Cycle {
		if e.Kind == graph.AUX {
			t.Fatalf("AUX edge leaked into counterexample: %v", r.Cycle)
		}
	}
}

func TestDivergenceEarlyExit(t *testing.T) {
	f := history.FixtureByName("LostUpdate")
	r := check(f.H, SI, Options{})
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
	r := check(f.H, SI, Options{})
	if !r.OK {
		t.Fatalf("WriteSkew satisfies SI: %s", r.Explain())
	}
	rs := check(f.H, SER, Options{})
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
		for _, r := range []Result{check(f.H, SER, Options{}), check(f.H, SI, Options{})} {
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
	r := check(f.H, SER, Options{})
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
		if _, err := CheckCtx(context.Background(), ix, lvl, Options{}); err == nil {
			t.Fatalf("level %q: want an error, not a verdict (or a panic)", lvl)
		}
	}
}

func TestExplainOutput(t *testing.T) {
	ok := check(history.SerialHistory(3), SER, Options{})
	if !strings.Contains(ok.Explain(), "satisfies SER") {
		t.Fatalf("Explain = %q", ok.Explain())
	}
	bad := check(history.FixtureByName("LostUpdate").H, SI, Options{})
	if !strings.Contains(bad.Explain(), "VIOLATES SI") || !strings.Contains(bad.Explain(), "DIVERGENCE") {
		t.Fatalf("Explain = %q", bad.Explain())
	}
	cyc := check(history.FixtureByName("WriteSkew").H, SER, Options{})
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
		return check(h, SSER, Options{}).OK && check(h, SER, Options{}).OK && check(h, SI, Options{}).OK
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
		sser := check(h, SSER, Options{})
		ser := check(h, SER, Options{})
		if !ser.OK && sser.OK {
			return false // SER violation implies SSER violation
		}
		si := check(h, SI, Options{})
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
		sser, ser, si := check(h, SSER, Options{}), check(h, SER, Options{}), check(h, SI, Options{})
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

func TestPropertySparseDenseSSERAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomSerialMTHistory(rng, 30, 3, 3)
		if rng.Intn(2) == 0 {
			corruptRead(rng, h)
		}
		dense := check(h, SSER, Options{})
		sparse := check(h, SSER, Options{SparseRT: true})
		return dense.OK == sparse.OK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
