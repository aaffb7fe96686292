// shard_differential_test.go property-tests component-sharded
// verification against the unsharded engines: on every history — clean
// or fault-injected, single- or multi-tenant, MT or GT shaped — each
// engine run with Options.Shard > 0 must return the same verdict, transaction
// and edge counts, and (for the batch engines) the identical anomaly set
// with external transaction ids, at shard parallelism 1, 2 and
// GOMAXPROCS. This is the contract the Shard knob advertises
// (checker.Options): only wall-clock may change.
package main

import (
	"context"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/corpus"
	"mtc/internal/graph"
	"mtc/internal/history"
	"mtc/internal/shard"
)

// canonAnomalies returns a canonically sorted copy (external position,
// kind, key, value) so anomaly lists compare as multisets: the merged
// sharded report orders by external position, the engines by scan order.
func canonAnomalies(as []history.Anomaly) []history.Anomaly {
	out := append([]history.Anomaly(nil), as...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Txn != b.Txn {
			return a.Txn < b.Txn
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Value < b.Value
	})
	return out
}

// shardLevels is the shard-parallelism axis of the differential.
var shardLevels = []int{1, 2, runtime.GOMAXPROCS(0)}

// shardCheck runs one engine/level on one history unsharded and
// sharded at every shard level, demanding equivalent reports.
func shardCheck(t *testing.T, name string, lvl checker.Level, h *history.History, tag string) {
	t.Helper()
	ctx := context.Background()
	ref, err := checker.Run(ctx, name, h, checker.Options{Level: lvl})
	if err != nil {
		t.Fatalf("%s/%s/%s: unsharded run failed: %v", tag, name, lvl, err)
	}
	batch := name != "mtc-incremental" // incremental reports only the first violation
	p := shard.Split(h)
	for _, sh := range shardLevels {
		got, err := checker.Run(ctx, name, h, checker.Options{Level: lvl, Shard: sh})
		if err != nil {
			t.Fatalf("%s/%s/%s shard %d: %v", tag, name, lvl, sh, err)
		}
		if got.OK != ref.OK {
			t.Fatalf("%s/%s/%s shard %d: OK=%v, unsharded OK=%v\nunsharded: %s\nsharded:   %s",
				tag, name, lvl, sh, got.OK, ref.OK, ref.Detail, got.Detail)
		}
		// Edge counts compare on clean verdicts only: a violating engine
		// exits early (pre-check failure skips graph construction, the
		// incremental replay stops at the offense), while the other
		// sharded components still complete their share. Transaction
		// counts always compare for the batch engines.
		if batch && got.Txns != ref.Txns {
			t.Fatalf("%s/%s/%s shard %d: txns %d, unsharded %d", tag, name, lvl, sh, got.Txns, ref.Txns)
		}
		if ref.OK && (got.Txns != ref.Txns || got.Edges != ref.Edges) {
			t.Fatalf("%s/%s/%s shard %d: txns/edges %d/%d, unsharded %d/%d",
				tag, name, lvl, sh, got.Txns, got.Edges, ref.Txns, ref.Edges)
		}
		if got.ShardComponents != maxInt(len(p.Components), 1) {
			t.Fatalf("%s/%s/%s shard %d: reported %d components, Split found %d",
				tag, name, lvl, sh, got.ShardComponents, len(p.Components))
		}
		refAs, gotAs := canonAnomalies(ref.Anomalies), canonAnomalies(got.Anomalies)
		if batch {
			// Batch engines report the full pre-check anomaly list: the
			// sharded concatenation must be the identical set, which also
			// pins the first offending transaction to the same position.
			if !reflect.DeepEqual(gotAs, refAs) {
				t.Fatalf("%s/%s/%s shard %d: anomalies diverge\nunsharded: %v\nsharded:   %v",
					tag, name, lvl, sh, refAs, gotAs)
			}
		} else if len(refAs) > 0 {
			// The incremental engine stops at the first violation; the
			// sharded merge must contain it, and its first offense can only
			// move earlier (another component's violation at a smaller
			// external position).
			if !containsAnomaly(gotAs, refAs[0]) {
				t.Fatalf("%s/%s/%s shard %d: unsharded counterexample %v missing from merged %v",
					tag, name, lvl, sh, refAs[0], gotAs)
			}
			if sf, rf := shard.FirstOffense(got), shard.FirstOffense(ref); sf < 0 || sf > rf {
				t.Fatalf("%s/%s/%s shard %d: merged first offense %d after unsharded %d",
					tag, name, lvl, sh, sf, rf)
			}
		}
		// Counterexample cycles never cross components — the decomposition
		// invariant, checked on both sides.
		assertCycleWithinComponent(t, p, ref.Cycle, tag+"/unsharded")
		assertCycleWithinComponent(t, p, got.Cycle, tag+"/sharded")
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func containsAnomaly(as []history.Anomaly, want history.Anomaly) bool {
	for _, a := range as {
		if a == want {
			return true
		}
	}
	return false
}

// assertCycleWithinComponent verifies every transaction of a
// counterexample cycle lives in one component — the decomposition
// invariant that makes per-component verdicts exact. The init
// transaction is replicated into every component and is compatible with
// any of them.
func assertCycleWithinComponent(t *testing.T, p *shard.Partition, cycle []graph.Edge, tag string) {
	t.Helper()
	compOf := make(map[int]int) // external txn id -> component; ⊥T absent
	for ci, c := range p.Components {
		for li, ext := range c.Ext {
			if li > 0 || !c.H.HasInit {
				compOf[ext] = ci
			}
		}
	}
	comp := -1
	for _, e := range cycle {
		for _, id := range []int{e.From, e.To} {
			c, ok := compOf[id]
			if !ok {
				continue // ⊥T belongs to every component
			}
			if comp < 0 {
				comp = c
			} else if c != comp {
				t.Fatalf("%s: counterexample cycle crosses components %d and %d: %v", tag, comp, c, cycle)
			}
		}
	}
}

// shardEngines lists every (engine, level) pair of the differential:
// the linear-time MTC engine, its online incremental variant, and the
// Cobra/PolySI SAT baselines.
var shardEngines = []struct {
	name string
	lvl  checker.Level
}{
	{"mtc", core.SER},
	{"mtc", core.SI},
	{"mtc", core.SSER},
	{"mtc-incremental", core.SER},
	{"mtc-incremental", core.SI},
	{"cobra", core.SER},
	{"polysi", core.SI},
}

// TestDifferentialShardedVsUnsharded replays >= 1000 randomized
// histories — mixed tenant counts (1..4), clean and fault-injected, MT
// and GT shaped — through every engine with Options.Shard at 1, 2 and
// GOMAXPROCS, asserting verdict equivalence with the unsharded engine.
func TestDifferentialShardedVsUnsharded(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus is slow under -short")
	}
	var sser sserTally
	histories := corpus.Differential(corpus.Shape{Seeds: 130, Sessions: 4, Objects: 3, Tenants: true, Bugs: 5},
		func(h *history.History, tag string) {
			for _, e := range shardEngines {
				shardCheck(t, e.name, e.lvl, h, tag)
			}
			sserCheck(t, h, tag, &sser)
		})
	if histories < 1000 {
		t.Fatalf("differential corpus too small: %d histories", histories)
	}
	if sser.ok == 0 || sser.cyclic == 0 || sser.inverted == 0 {
		t.Fatalf("corpus no longer covers every SSER outcome: %+v", sser)
	}
	t.Logf("compared %d histories across %d engine/level pairs at shard parallelism %v; SSER outcomes %+v",
		histories, len(shardEngines), shardLevels, sser)
}
