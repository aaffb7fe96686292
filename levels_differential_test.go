// levels_differential_test.go property-tests the lattice profiler
// against the dedicated engines and the Elle baseline: on every history —
// clean or fault-injected, MT or general-transaction shaped — the
// profile's SER rung must be bit-identical to core.CheckCtx at SER
// (verdict, counterexample cycle edge by edge, anomaly list, edge count),
// the SI rung bit-identical to core.CheckCtx at SI whenever it actually
// runs, the SSER rung bit-identical to the dedicated engine and equal to
// the definitional Θ(n²) graph (sserCheck), the rung column must be
// monotone in the lattice, and no Elle-visible violation may pass a
// shared rung. This is the contract docs/isolation.md advertises for
// `profile` as a drop-in engine.
package main

import (
	"context"
	"reflect"
	"testing"

	"mtc/internal/core"
	"mtc/internal/corpus"
	"mtc/internal/elle"
	"mtc/internal/faults"
	"mtc/internal/history"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

// profileCheck profiles one history and cross-examines the report.
func profileCheck(t *testing.T, h *history.History, tag string) *core.Profile {
	t.Helper()
	prof, err := core.ProfileCtx(context.Background(), history.NewIndex(h))
	if err != nil {
		t.Fatalf("%s: profile failed: %v", tag, err)
	}

	// SER: the profiler always computes this rung on the shared graph,
	// so it must be bit-identical to the dedicated engine.
	ser := coreCheck(h, core.SER)
	rser := *prof.Rung(core.SER)
	if rser.OK != ser.OK || rser.NumTxns != ser.NumTxns || rser.NumEdges != ser.NumEdges {
		t.Fatalf("%s: SER rung OK=%v txns=%d edges=%d, engine OK=%v txns=%d edges=%d",
			tag, rser.OK, rser.NumTxns, rser.NumEdges, ser.OK, ser.NumTxns, ser.NumEdges)
	}
	if !reflect.DeepEqual(rser.Cycle, ser.Cycle) {
		t.Fatalf("%s: SER cycles diverge\nprofile: %v\nengine:  %v", tag, rser.Cycle, ser.Cycle)
	}
	if !reflect.DeepEqual(rser.Anomalies, ser.Anomalies) {
		t.Fatalf("%s: SER anomalies diverge\nprofile: %v\nengine:  %v", tag, rser.Anomalies, ser.Anomalies)
	}

	// SI: the verdict always agrees; the witness is bit-identical
	// whenever the rung actually ran (a SER pass short-circuits it).
	si := coreCheck(h, core.SI)
	rsi := *prof.Rung(core.SI)
	if rsi.OK != si.OK {
		t.Fatalf("%s: SI rung OK=%v, engine OK=%v", tag, rsi.OK, si.OK)
	}
	if !rser.OK {
		if !reflect.DeepEqual(rsi.Cycle, si.Cycle) {
			t.Fatalf("%s: SI cycles diverge\nprofile: %v\nengine:  %v", tag, rsi.Cycle, si.Cycle)
		}
		if !reflect.DeepEqual(rsi.Anomalies, si.Anomalies) {
			t.Fatalf("%s: SI anomalies diverge\nprofile: %v\nengine:  %v", tag, rsi.Anomalies, si.Anomalies)
		}
		if !reflect.DeepEqual(rsi.Divergence, si.Divergence) {
			t.Fatalf("%s: SI divergence witnesses diverge\nprofile: %v\nengine:  %v",
				tag, rsi.Divergence, si.Divergence)
		}
	}

	// Lattice monotonicity: once a rung is violated, every rung above it
	// must be violated too, and Strongest is exactly the highest OK rung.
	strongest := core.None
	broken := false
	for _, v := range prof.Rungs {
		switch {
		case v.OK && broken:
			t.Fatalf("%s: non-monotone profile: %s passes above a violated rung", tag, v.Level)
		case v.OK:
			strongest = v.Level
		default:
			broken = true
		}
	}
	if prof.Strongest != strongest {
		t.Fatalf("%s: strongest=%s, rung column says %s", tag, prof.Strongest, strongest)
	}

	// Elle cross-check on the shared levels: the register mode infers a
	// subset of MTC's dependencies, so any violation Elle can see must
	// fail the corresponding rung here too.
	if r := elle.CheckRWRegister(h, elle.SER); !r.OK && rser.OK {
		t.Fatalf("%s: elle rejects SER (%s) but the SER rung passed", tag, r.Reason)
	}
	if r := elle.CheckRWRegister(h, elle.SI); !r.OK && rsi.OK {
		t.Fatalf("%s: elle rejects SI (%s) but the SI rung passed", tag, r.Reason)
	}
	return prof
}

// TestDifferentialProfileVsEngines replays >= 1000 randomized histories
// through the profiler: clean MT histories from both strong store modes,
// blind-write general-transaction histories, Table-II fault injections,
// and the per-rung fault presets (which must never break a rung below
// the one they target).
func TestDifferentialProfileVsEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus is slow under -short")
	}
	var sser sserTally
	check := func(h *history.History, tag string) *core.Profile {
		sserCheck(t, h, tag, &sser)
		return profileCheck(t, h, tag)
	}
	const seeds = 80
	histories := corpus.Differential(corpus.Shape{Seeds: seeds, Sessions: 3, Objects: 4, Bugs: 5},
		func(h *history.History, tag string) { check(h, tag) })
	// Per-rung fault presets: whatever breaks must break at or above the
	// preset's target rung, never below it.
	for seed := int64(1); seed <= seeds; seed++ {
		for _, lb := range faults.LevelBugs() {
			wl := workload.GenerateLevelTargeted(lb.Breaks, workload.TargetedConfig{
				Sessions: 4, Txns: 24, Objects: 3, Seed: seed,
			})
			prof := check(runner.Run(lb.NewStore(seed), wl, runner.Config{Retries: 2}).H, lb.Anomaly)
			histories++
			for _, v := range prof.Rungs {
				if !v.OK && core.LatticeRank(v.Level) < core.LatticeRank(lb.Breaks) {
					t.Fatalf("%s preset broke %s, below its target rung %s", lb.Anomaly, v.Level, lb.Breaks)
				}
			}
		}
	}
	if histories < 1000 {
		t.Fatalf("differential corpus too small: %d histories", histories)
	}
	if sser.ok == 0 || sser.cyclic == 0 || sser.inverted == 0 {
		t.Fatalf("corpus no longer covers every SSER outcome: %+v", sser)
	}
	t.Logf("profiled %d histories against the dedicated engines and elle; SSER outcomes %+v", histories, sser)
}
