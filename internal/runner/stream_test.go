package runner

import (
	"context"
	"testing"

	"mtc/internal/core"
	"mtc/internal/faults"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/workload"
)

// TestRunStreamCleanMatchesBatch verifies a healthy run online and
// cross-checks the streaming verdict against the batch checker over the
// collected history.
func TestRunStreamCleanMatchesBatch(t *testing.T) {
	for _, lvl := range []core.Level{core.SER, core.SI} {
		mode := kv.ModeSI
		if lvl == core.SER {
			mode = kv.ModeSerializable
		}
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 6, Txns: 50, Objects: 8, Dist: workload.Uniform, Seed: 7, ReadOnlyFrac: 0.25,
		})
		res := RunStream(context.Background(), kv.NewStore(mode), w, Config{Retries: 6}, lvl)
		if !res.Verdict.OK {
			t.Fatalf("%s: clean store rejected online: %s", lvl, res.Verdict.Witness())
		}
		if res.EarlyAborted || res.ViolationAt != 0 {
			t.Fatalf("%s: clean run flagged early abort: %+v", lvl, res)
		}
		batch := coreCheck(res.H, lvl)
		if !batch.OK {
			t.Fatalf("%s: batch disagrees on the collected history: %s", lvl, batch.Witness())
		}
		// The online ⊥T carries only the keys the plan touches; a key
		// nothing touches adds no edge, so the counts match the batch's.
		if res.Verdict.NumTxns != batch.NumTxns || res.Verdict.NumEdges != batch.NumEdges {
			t.Fatalf("%s: online counts %d txns / %d edges, batch %d / %d",
				lvl, res.Verdict.NumTxns, res.Verdict.NumEdges, batch.NumTxns, batch.NumEdges)
		}
		if res.Committed == 0 || res.H == nil {
			t.Fatalf("%s: empty run", lvl)
		}
	}
}

// TestRunStreamSurfacesViolationMidRun injects the lost-update bug with a
// workload large enough that the violation must surface well before the
// plan is exhausted, stopping the sessions early.
func TestRunStreamSurfacesViolationMidRun(t *testing.T) {
	bug := faults.BugByName("mariadb-galera-10.7.3")
	for seed := int64(1); seed <= 10; seed++ {
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 8, Txns: 400, Objects: 2, Dist: workload.Uniform, Seed: seed, ReadOnlyFrac: 0.1,
		})
		res := RunStream(context.Background(), bug.NewStore(seed), w, Config{Retries: 4}, core.SI)
		if res.Verdict.OK {
			continue // bug did not manifest under this seed; try the next
		}
		if res.ViolationAt == 0 {
			t.Fatal("violation found but ViolationAt not recorded")
		}
		// The batch checker must agree on the collected (prefix) history.
		if batch := coreCheck(res.H, core.SI); batch.OK {
			t.Fatalf("seed %d: batch accepts the history the stream rejected", seed)
		}
		planned := 0
		for _, specs := range w.Sessions {
			planned += len(specs)
		}
		if !res.EarlyAborted {
			t.Fatalf("seed %d: 3200-txn plan with a hot lost-update bug should abort early (committed %d of %d)",
				seed, res.Committed, planned)
		}
		t.Logf("seed %d: violation at txn %d, committed %d of %d planned", seed, res.ViolationAt, res.Committed, planned)
		return
	}
	t.Fatal("lost update never manifested in 10 seeds")
}

// TestRunStreamKeepsAbortedRecords checks DropAborted=false default keeps
// aborted attempts in the collected history (needed for G1a).
func TestRunStreamKeepsAbortedRecords(t *testing.T) {
	w := workload.GenerateMT(workload.MTConfig{
		Sessions: 8, Txns: 60, Objects: 2, Dist: workload.Uniform, Seed: 3, ReadOnlyFrac: 0,
	})
	res := RunStream(context.Background(), kv.NewStore(kv.ModeSerializable), w, Config{Retries: 2}, core.SER)
	if res.Aborted == 0 {
		t.Skip("no aborts under this seed")
	}
	aborted := 0
	for i := range res.H.Txns {
		if !res.H.Txns[i].Committed {
			aborted++
		}
	}
	if aborted != res.Aborted {
		t.Fatalf("history records %d aborted, runner counted %d", aborted, res.Aborted)
	}
}

// TestRunStreamHonorsCancellation cancels the stream context mid-run and
// asserts the sessions stop early with the context error recorded.
func TestRunStreamHonorsCancellation(t *testing.T) {
	w := workload.GenerateMT(workload.MTConfig{
		Sessions: 8, Txns: 400, Objects: 8, Dist: workload.Uniform, Seed: 11,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RunStream(ctx, kv.NewStore(kv.ModeSI), w, Config{Retries: 2}, core.SI)
	if res.Err == nil {
		t.Fatal("canceled run must record the context error")
	}
	planned := 0
	for _, specs := range w.Sessions {
		planned += len(specs)
	}
	if res.Committed >= planned {
		t.Fatalf("canceled run executed the whole plan (%d/%d)", res.Committed, planned)
	}
}

// TestRunStreamWindowed runs a clean streaming workload under a small
// compaction window: the verdict must stay OK, compaction must actually
// run, and the history must not be retained (that is the memory the
// window frees).
func TestRunStreamWindowed(t *testing.T) {
	for _, lvl := range []core.Level{core.SER, core.SI} {
		mode := kv.ModeSI
		if lvl == core.SER {
			mode = kv.ModeSerializable
		}
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 6, Txns: 100, Objects: 8, Dist: workload.Uniform, Seed: 11, ReadOnlyFrac: 0.25,
		})
		res := RunStream(context.Background(), kv.NewStore(mode), w, Config{Retries: 6, Window: 64}, lvl)
		if !res.Verdict.OK {
			t.Fatalf("%s: clean store rejected under window: %s", lvl, res.Verdict.Witness())
		}
		if res.H != nil {
			t.Fatalf("%s: windowed run must not retain the history", lvl)
		}
		if res.Verdict.CompactedEpochs == 0 || res.Verdict.CompactedTxns == 0 {
			t.Fatalf("%s: window set but no compaction ran: %+v", lvl, res.Verdict)
		}
	}
}

// TestRunStreamWindowedStillCatchesViolation: the compacting stream must
// flag an injected lost update exactly like the unbounded stream.
func TestRunStreamWindowedStillCatchesViolation(t *testing.T) {
	bug := faults.BugByName("mariadb-galera-10.7.3")
	caught := false
	for seed := int64(1); seed <= 10 && !caught; seed++ {
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 8, Txns: 400, Objects: 2, Dist: workload.Uniform, Seed: seed, ReadOnlyFrac: 0.1,
		})
		res := RunStream(context.Background(), bug.NewStore(seed), w, Config{Retries: 4, Window: 128}, core.SI)
		if res.Verdict.OK {
			continue
		}
		caught = true
		if res.ViolationAt == 0 {
			t.Fatal("violation found but ViolationAt not recorded")
		}
		if !res.EarlyAborted {
			t.Fatal("violation must stop the sessions early")
		}
	}
	if !caught {
		t.Fatal("lost-update bug never manifested in 10 seeds")
	}
}

// TestRunStreamShardedClean: a multi-tenant run, whose key-disjoint
// tenants once verified through one checker each, verifies through the
// one online checker: a healthy store is accepted, the batch checker
// agrees on the collected history, and the online counts are the
// batch's (one ⊥T, whatever the tenant count).
func TestRunStreamShardedClean(t *testing.T) {
	for _, lvl := range []core.Level{core.SER, core.SI} {
		mode := kv.ModeSI
		if lvl == core.SER {
			mode = kv.ModeSerializable
		}
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 8, Txns: 40, Objects: 6, Dist: workload.Uniform, Seed: 11, ReadOnlyFrac: 0.25,
			Tenants: 4,
		})
		res := RunStream(context.Background(), kv.NewStore(mode), w, Config{Retries: 6}, lvl)
		if !res.Verdict.OK {
			t.Fatalf("%s: clean multi-tenant run rejected: %s", lvl, res.Verdict.Witness())
		}
		if res.EarlyAborted || res.ViolationAt != 0 {
			t.Fatalf("%s: clean run flagged early abort: %+v", lvl, res)
		}
		if res.H == nil || res.Committed == 0 {
			t.Fatalf("%s: unwindowed run must collect a non-empty history", lvl)
		}
		batch := coreCheck(res.H, lvl)
		if !batch.OK {
			t.Fatalf("%s: batch disagrees on the collected history: %s", lvl, batch.Witness())
		}
		if want := res.Attempts + 1; res.Verdict.NumTxns != want {
			t.Fatalf("%s: NumTxns %d, want %d (attempts %d + one ⊥T)", lvl, res.Verdict.NumTxns, want, res.Attempts)
		}
		if res.Verdict.NumTxns != batch.NumTxns || res.Verdict.NumEdges != batch.NumEdges {
			t.Fatalf("%s: online counts %d txns / %d edges, batch %d / %d",
				lvl, res.Verdict.NumTxns, res.Verdict.NumEdges, batch.NumTxns, batch.NumEdges)
		}
	}
}

// TestRunStreamShardedCatchesViolation: a faulty store running a
// multi-tenant plan is caught by the one online checker, early-aborting
// the run, and the counterexample names the assembled history's
// transactions.
func TestRunStreamShardedCatchesViolation(t *testing.T) {
	bug := faults.BugByName("mariadb-galera-10.7.3")
	for seed := int64(1); seed <= 10; seed++ {
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 8, Txns: 400, Objects: 2, Dist: workload.Uniform, Seed: seed, ReadOnlyFrac: 0.1,
			Tenants: 4,
		})
		res := RunStream(context.Background(), bug.NewStore(seed), w, Config{Retries: 4}, core.SI)
		if res.Verdict.OK {
			continue // bug did not manifest under this seed; try the next
		}
		if batch := coreCheck(res.H, core.SI); batch.OK {
			t.Fatalf("seed %d: batch accepts the history the stream rejected", seed)
		}
		if res.ViolationAt == 0 {
			t.Fatal("violation found mid-stream but ViolationAt not recorded")
		}
		if !res.EarlyAborted {
			t.Fatalf("seed %d: multi-tenant run should abort early (committed %d of %d)", seed, res.Committed, w.NumTxns())
		}
		assertVerdictIndexesHistory(t, res)
		return
	}
	t.Fatal("lost update never manifested in 10 seeds")
}

// TestRunStreamShardedWindowed: epoch compaction bounds the one checker
// over a multi-tenant plan while the verdict stays clean, and the
// windowed run retains no history.
func TestRunStreamShardedWindowed(t *testing.T) {
	w := workload.GenerateMT(workload.MTConfig{
		Sessions: 6, Txns: 120, Objects: 4, Dist: workload.Uniform, Seed: 5, ReadOnlyFrac: 0.2,
		Tenants: 3,
	})
	res := RunStream(context.Background(), kv.NewStore(kv.ModeSI), w, Config{Retries: 6, Window: 32}, core.SI)
	if !res.Verdict.OK {
		t.Fatalf("clean windowed multi-tenant run rejected: %s", res.Verdict.Witness())
	}
	if res.H != nil {
		t.Fatal("windowed run must not retain the history")
	}
	if res.Verdict.CompactedEpochs == 0 || res.Verdict.CompactedTxns == 0 {
		t.Fatalf("window set but no compaction ran: %+v", res.Verdict)
	}
}

// assertVerdictIndexesHistory proves the counterexample names the
// assembled history's transactions: every implicated transaction id
// must index the history AND touch the key it is implicated over.
func assertVerdictIndexesHistory(t *testing.T, res *StreamResult) {
	t.Helper()
	touches := func(id int, key history.Key) {
		t.Helper()
		if id < 0 || id >= len(res.H.Txns) {
			t.Fatalf("counterexample txn %d outside the %d-txn history", id, len(res.H.Txns))
		}
		for _, op := range res.H.Txns[id].Ops {
			if op.Key == key {
				return
			}
		}
		t.Fatalf("counterexample txn %d never touches %s: %s", id, key, res.H.Txns[id].String())
	}
	v := res.Verdict
	for _, a := range v.Anomalies {
		touches(a.Txn, a.Key)
	}
	if d := v.Divergence; d != nil {
		touches(d.Writer, d.Key)
		touches(d.Reader1, d.Key)
		touches(d.Reader2, d.Key)
	}
	for _, e := range v.Cycle {
		if e.From < 0 || e.From >= len(res.H.Txns) || e.To < 0 || e.To >= len(res.H.Txns) {
			t.Fatalf("cycle edge %v outside the %d-txn history", e, len(res.H.Txns))
		}
	}
}
