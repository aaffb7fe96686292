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

// TestRunStreamShardedClean: a multi-tenant run verified through
// per-component checkers accepts a healthy store, reports the component
// count, and the batch checker agrees on the collected history.
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
		res := RunStream(context.Background(), kv.NewStore(mode), w, Config{Retries: 6, Shard: 4}, lvl)
		if !res.Verdict.OK {
			t.Fatalf("%s: clean sharded run rejected: %s", lvl, res.Verdict.Witness())
		}
		if res.Shards != 4 {
			t.Fatalf("%s: verified through %d shards, want 4", lvl, res.Shards)
		}
		if res.H == nil {
			t.Fatalf("%s: unwindowed sharded run must collect the history", lvl)
		}
		if batch := coreCheck(res.H, lvl); !batch.OK {
			t.Fatalf("%s: batch disagrees on the collected history: %s", lvl, batch.Witness())
		}
		// Each shard adds its own init: merged txn count is the observed
		// transactions plus one ⊥T per component.
		if want := res.Attempts + res.Shards; res.Verdict.NumTxns != want {
			t.Fatalf("%s: merged NumTxns %d, want %d (attempts %d + %d inits)",
				lvl, res.Verdict.NumTxns, want, res.Attempts, res.Shards)
		}
	}
}

// TestRunStreamShardedCatchesViolation: a faulty store is caught by the
// sharded pipeline, early-aborting the run just like the unsharded one.
func TestRunStreamShardedCatchesViolation(t *testing.T) {
	bug := faults.BugByName("mariadb-galera-10.7.3")
	for seed := int64(1); seed <= 10; seed++ {
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 8, Txns: 400, Objects: 2, Dist: workload.Uniform, Seed: seed, ReadOnlyFrac: 0.1,
			Tenants: 4,
		})
		res := RunStream(context.Background(), bug.NewStore(seed), w, Config{Retries: 4, Shard: 2}, core.SI)
		if res.Verdict.OK {
			continue // bug did not manifest under this seed; try the next
		}
		if res.Shards != 4 {
			t.Fatalf("seed %d: %d shards, want 4", seed, res.Shards)
		}
		if batch := coreCheck(res.H, core.SI); batch.OK {
			t.Fatalf("seed %d: batch accepts the history the sharded stream rejected", seed)
		}
		if res.ViolationAt == 0 {
			t.Fatal("violation found mid-stream but ViolationAt not recorded")
		}
		if !res.EarlyAborted {
			t.Fatalf("seed %d: sharded run should abort early (committed %d)", seed, res.Committed)
		}
		assertVerdictIndexesHistory(t, res)
		return
	}
	t.Fatal("lost update never manifested in 10 seeds")
}

// assertVerdictIndexesHistory proves the sharded counterexample carries
// global stream positions, not shard-local ones: every implicated
// transaction id must index the assembled history AND touch the key it
// is implicated over.
func assertVerdictIndexesHistory(t *testing.T, res *StreamResult) {
	t.Helper()
	touches := func(id int, key history.Key) {
		t.Helper()
		if id < 0 || id >= len(res.H.Txns) {
			t.Fatalf("counterexample txn %d outside the %d-txn history (shard-local id leaked?)", id, len(res.H.Txns))
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

// TestRunStreamShardedWindowed: per-shard epoch compaction keeps every
// component's checker bounded while the merged verdict stays clean; the
// compaction stats are summed across shards.
func TestRunStreamShardedWindowed(t *testing.T) {
	w := workload.GenerateMT(workload.MTConfig{
		Sessions: 6, Txns: 120, Objects: 4, Dist: workload.Uniform, Seed: 5, ReadOnlyFrac: 0.2,
		Tenants: 3,
	})
	res := RunStream(context.Background(), kv.NewStore(kv.ModeSI), w, Config{Retries: 6, Shard: 3, Window: 32}, core.SI)
	if !res.Verdict.OK {
		t.Fatalf("clean windowed sharded run rejected: %s", res.Verdict.Witness())
	}
	if res.H != nil {
		t.Fatal("windowed run must not retain the history")
	}
	if res.Shards != 3 || res.Verdict.CompactedEpochs == 0 {
		t.Fatalf("shards %d, compacted epochs %d: expected 3 shards with compaction", res.Shards, res.Verdict.CompactedEpochs)
	}
}

// TestRunStreamShardedFallsBack: a single-component plan ignores the
// shard knob and verifies as one group.
func TestRunStreamShardedFallsBack(t *testing.T) {
	w := workload.GenerateMT(workload.MTConfig{
		Sessions: 4, Txns: 30, Objects: 4, Dist: workload.Uniform, Seed: 2, ReadOnlyFrac: 0.25,
	})
	res := RunStream(context.Background(), kv.NewStore(kv.ModeSI), w, Config{Retries: 6, Shard: 8}, core.SI)
	if !res.Verdict.OK || res.Shards != 0 {
		t.Fatalf("single-component plan must fall back: shards %d, verdict %v", res.Shards, res.Verdict.OK)
	}
}
