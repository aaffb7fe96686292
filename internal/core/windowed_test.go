// windowed_test.go property-tests the epoch-windowed checker against the
// unbounded online checker: on every history — clean or fault-injected,
// MT or dropped-abort shaped — windowed replay at several window sizes
// must return the identical verdict, anomaly list, divergence witness,
// edge count and first-offending-commit position, while actually
// compacting. It lives in the external test package so it can drive the
// full workload -> store -> runner pipeline.
package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"mtc/internal/core"
	"mtc/internal/faults"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

var diffWindows = []int{4, 16, 64}

// windowedDiffCheck compares unbounded and windowed verdicts on one
// history at both online levels.
func windowedDiffCheck(t *testing.T, h *history.History, tag string) {
	t.Helper()
	for _, lvl := range []core.Level{core.SER, core.SI} {
		ref := coreReplay(h, lvl, 0)
		for _, win := range diffWindows {
			got := coreReplay(h, lvl, win)
			if got.OK != ref.OK {
				t.Fatalf("%s/%s win %d: OK=%v, unbounded OK=%v\nunbounded: %s\nwindowed: %s",
					tag, lvl, win, got.OK, ref.OK, ref.Explain(), got.Explain())
			}
			// NumTxns in a violating verdict is the stream position at
			// detection: equality means the windowed checker flags the
			// same first offending commit.
			if got.NumTxns != ref.NumTxns || got.NumEdges != ref.NumEdges {
				t.Fatalf("%s/%s win %d: txns/edges %d/%d, unbounded %d/%d",
					tag, lvl, win, got.NumTxns, got.NumEdges, ref.NumTxns, ref.NumEdges)
			}
			if !reflect.DeepEqual(got.Anomalies, ref.Anomalies) {
				t.Fatalf("%s/%s win %d: anomalies diverge\nunbounded: %v\nwindowed:  %v",
					tag, lvl, win, ref.Anomalies, got.Anomalies)
			}
			if !reflect.DeepEqual(got.Divergence, ref.Divergence) {
				t.Fatalf("%s/%s win %d: divergence diverges\nunbounded: %v\nwindowed:  %v",
					tag, lvl, win, ref.Divergence, got.Divergence)
			}
			// Cycle EDGES may legitimately differ: a path through a
			// collapsed epoch reports as a summary edge. Presence must not.
			if (len(got.Cycle) > 0) != (len(ref.Cycle) > 0) {
				t.Fatalf("%s/%s win %d: cycle presence diverges\nunbounded: %s\nwindowed: %s",
					tag, lvl, win, ref.Explain(), got.Explain())
			}
		}
	}
}

// TestDifferentialWindowedVsUnbounded runs >= 1000 randomized histories
// through the windowed checker at windows far smaller than the history:
// clean substrates of every store mode plus every non-LWT bug of the
// Table II catalogue, including dropped-abort streams.
func TestDifferentialWindowedVsUnbounded(t *testing.T) {
	var bugs []faults.Bug
	for _, b := range faults.Bugs() {
		if !b.LWT {
			bugs = append(bugs, b)
		}
	}
	histories := 0
	for seed := int64(1); seed <= 125; seed++ {
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 3, Txns: 6, Objects: 4,
			Dist: workload.Uniform, Seed: seed, ReadOnlyFrac: 0.25,
		})
		for _, mode := range []kv.Mode{kv.ModeSerializable, kv.ModeSI, kv.Mode2PL} {
			h := runner.Run(kv.NewStore(mode), w, runner.Config{Retries: 2}).H
			windowedDiffCheck(t, h, mode.String())
			histories++
		}
		wf := workload.GenerateMT(workload.MTConfig{
			Sessions: 3, Txns: 8, Objects: 2,
			Dist: workload.Exponential, Seed: seed, ReadOnlyFrac: 0.25,
		})
		for _, b := range bugs {
			h := runner.Run(b.NewStore(seed), wf, runner.Config{Retries: 2}).H
			windowedDiffCheck(t, h, b.Name)
			histories++
		}
		// Aborted transactions dropped from the record: stresses the
		// pending-read classification surviving compaction.
		hd := runner.Run(bugs[1].NewStore(seed), wf, runner.Config{Retries: 1, DropAborted: true}).H
		windowedDiffCheck(t, hd, bugs[1].Name+"-dropped")
		histories++
	}
	if histories < 1000 {
		t.Fatalf("differential corpus too small: %d histories", histories)
	}
	t.Logf("compared %d histories at 2 levels x %d windows each", histories, len(diffWindows))
}

// TestWindowedActuallyCompacts guards against the suite passing
// vacuously: on a long clean serializable run the windowed checker must
// collapse most of the stream and keep the live graph near the window.
func TestWindowedActuallyCompacts(t *testing.T) {
	w := workload.GenerateMT(workload.MTConfig{
		Sessions: 4, Txns: 250, Objects: 16,
		Dist: workload.Uniform, Seed: 7, ReadOnlyFrac: 0.25,
	})
	h := runner.Run(kv.NewStore(kv.ModeSerializable), w, runner.Config{Retries: 4}).H
	if len(h.Txns) < 900 {
		t.Fatalf("history too small: %d", len(h.Txns))
	}
	for _, lvl := range []core.Level{core.SER, core.SI} {
		got := coreReplay(h, lvl, 64)
		if !got.OK {
			t.Fatalf("%s: clean history rejected: %s", lvl, got.Explain())
		}
		if got.CompactedEpochs == 0 || got.CompactedTxns < len(h.Txns)/2 {
			t.Fatalf("%s: compaction barely ran: %d txns over %d epochs (history %d)",
				lvl, got.CompactedTxns, got.CompactedEpochs, len(h.Txns))
		}
	}
}

// TestCompactBoundsLiveState drives long synthetic clean streams through
// Incremental with periodic window compaction and asserts the
// materialised state stays bounded: nodes by the window plus the per-key
// boundary — the structural form of the bounded-RSS claim that
// BenchmarkStream1M measures — and edges by a constant per node. The
// round-robin stream keeps few summary edges whatever Compact does; on the
// Zipf stream over 2000 keys a cold key's latest slot survives many
// epochs, and summary edges that restate reachability instead of reducing
// it grow towards nodes²/2 (past 500 per node within twenty epochs).
func TestCompactBoundsLiveState(t *testing.T) {
	const (
		txns         = 20000
		session      = 8
		edgesPerNode = 12
	)
	for _, tc := range []struct {
		name         string
		keys, window int
		zipf         bool
	}{
		{"round-robin", 32, 512, false},
		{"zipf", 2000, 2048, true},
	} {
		keyNames := workload.KeyUniverse(tc.keys)
		for _, lvl := range []core.Level{core.SER, core.SI} {
			rng := rand.New(rand.NewSource(1))
			zipf := rand.NewZipf(rng, 1.1, 1, uint64(tc.keys-1))
			inc := core.NewIncremental(lvl)
			inc.InitTxn(keyNames...)
			latest := make([]history.Value, tc.keys) // current value per key
			maxLive := 0
			next := history.Value(1)
			rmw := func(ops []history.Op, k int) []history.Op {
				ops = append(ops, history.R(keyNames[k], latest[k]), history.W(keyNames[k], next))
				latest[k] = next
				next++
				return ops
			}
			for i := 0; i < txns; i++ {
				var ops []history.Op
				if !tc.zipf {
					ops = rmw(nil, i%tc.keys)
				} else {
					// R+RMW and RMW+RMW: the two-key shapes tie keys together.
					k1, k2 := int(zipf.Uint64()), int(zipf.Uint64())
					if k1 == k2 || i%2 == 0 {
						ops = append(ops, history.R(keyNames[k1], latest[k1]))
					} else {
						ops = rmw(ops, k1)
					}
					ops = rmw(ops, k2)
				}
				if vio := inc.Add(history.Txn{Session: i % session, Ops: ops, Committed: true}); vio != nil {
					t.Fatalf("%s/%s: clean stream rejected at %d: %s", tc.name, lvl, i, vio.Explain())
				}
				inc.MaybeCompact(tc.window, 0, nil)
				if edges, nodes := inc.LiveEdges(), inc.LiveNodes(); edges > edgesPerNode*nodes {
					t.Fatalf("%s/%s: epoch %d: %d edges among %d live nodes, more than %d per node",
						tc.name, lvl, inc.CompactedEpochs(), edges, nodes, edgesPerNode)
				}
				maxLive = max(maxLive, inc.LiveNodes())
			}
			if r := inc.Finalize(); !r.OK {
				t.Fatalf("%s/%s: finalize rejected: %s", tc.name, lvl, r.Explain())
			}
			// Window plus slack for session tails, per-key latest slots and
			// the not-yet-compacted half-window.
			bound := tc.window + tc.window/2 + 4*tc.keys + session + 16
			if maxLive > bound {
				t.Fatalf("%s/%s: live state not bounded: peak %d nodes > %d (window %d, %d txns)",
					tc.name, lvl, maxLive, bound, tc.window, txns)
			}
			if inc.CompactedTxns() < txns/2 {
				t.Fatalf("%s/%s: compaction barely ran: %d of %d txns", tc.name, lvl, inc.CompactedTxns(), txns)
			}
		}
	}
}
