// differential_test.go property-tests the online incremental checker
// against the batch MTC algorithms: on every history — clean or
// fault-injected, committed-only or with aborted attempts — the two must
// return the same verdict, and on accepted histories the same dependency
// edge count. It lives in an external test package so it can drive the
// full workload -> store -> runner pipeline.
package core_test

import (
	"context"
	"testing"

	"mtc/internal/core"
	"mtc/internal/faults"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

// coreCheck runs the batch pipeline on h. Under a background context the
// only error CheckCtx can return is a level without a batch engine.
func coreCheck(h *history.History, lvl core.Level) core.Result {
	r, err := core.CheckCtx(context.Background(), history.NewIndex(h), lvl)
	if err != nil {
		panic(err)
	}
	return r
}

// coreReplay runs the online engine over h (window 0 = unbounded).
func coreReplay(h *history.History, lvl core.Level, window int) core.Result {
	r, _ := core.CheckIncrementalWindowedCtx(context.Background(), h, lvl, window)
	return r
}

// diffCheck compares batch and incremental verdicts on one history.
func diffCheck(t *testing.T, h *history.History, tag string) {
	t.Helper()
	for _, lvl := range []core.Level{core.SER, core.SI} {
		batch := coreCheck(h, lvl)
		incr := coreReplay(h, lvl, 0)
		if batch.OK != incr.OK {
			t.Fatalf("%s/%s: batch OK=%v but incremental OK=%v\nbatch: %s\nincremental: %s",
				tag, lvl, batch.OK, incr.OK, batch.Explain(), incr.Explain())
		}
		if batch.OK && batch.NumEdges != incr.NumEdges {
			t.Fatalf("%s/%s: accepted but edge counts diverge: batch %d, incremental %d",
				tag, lvl, batch.NumEdges, incr.NumEdges)
		}
		if batch.NumTxns != len(h.Txns) {
			t.Fatalf("%s/%s: batch txn count %d != %d", tag, lvl, batch.NumTxns, len(h.Txns))
		}
	}
}

// TestDifferentialBatchVsIncremental runs >= 1000 randomized histories
// through both checkers: clean serializable and SI substrates plus every
// non-LWT bug of the Table II catalogue.
func TestDifferentialBatchVsIncremental(t *testing.T) {
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
			diffCheck(t, h, mode.String())
			histories++
		}
		wf := workload.GenerateMT(workload.MTConfig{
			Sessions: 3, Txns: 8, Objects: 2,
			Dist: workload.Exponential, Seed: seed, ReadOnlyFrac: 0.25,
		})
		for _, b := range bugs {
			h := runner.Run(b.NewStore(seed), wf, runner.Config{Retries: 2}).H
			diffCheck(t, h, b.Name)
			histories++
		}
		// Aborted transactions dropped from the record: stresses the
		// pending-read classification (AbortedRead turns ThinAirRead).
		hd := runner.Run(bugs[1].NewStore(seed), wf, runner.Config{Retries: 1, DropAborted: true}).H
		diffCheck(t, hd, bugs[1].Name+"-dropped")
		histories++
	}
	if histories < 1000 {
		t.Fatalf("differential corpus too small: %d histories", histories)
	}
	t.Logf("compared %d histories at 2 levels each", histories)
}

// TestDifferentialTargetedWorkloads covers the anomaly-guided generator,
// whose RMW-heavy plans exercise the WW/RW inference densely.
func TestDifferentialTargetedWorkloads(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		w := workload.GenerateTargeted(workload.TargetedConfig{
			Sessions: 4, Txns: 20, Objects: 3, Seed: seed,
		})
		h := runner.Run(kv.NewStore(kv.ModeSI), w, runner.Config{Retries: 3}).H
		diffCheck(t, h, "targeted")
		hb := runner.Run(faults.Bugs()[0].NewStore(seed), w, runner.Config{Retries: 3}).H
		diffCheck(t, hb, "targeted-faulty")
	}
}

// TestDifferentialInitFinishesLast: a committed transaction that
// finishes before ⊥T's stamp must still follow ⊥T in the replay, or it
// loses its SO edge from ⊥T.
func TestDifferentialInitFinishesLast(t *testing.T) {
	b := history.NewBuilder("x", "y")
	b.TimedTxn(0, -20, -10, history.R("x", 0), history.W("x", 1))
	diffCheck(t, b.Build(), "init-finishes-last")
}

// TestIncrementalEarlyExitMatchesBatchVerdict ensures that when the
// incremental checker rejects mid-stream, the batch checker rejects the
// full history too (the early verdict is never a false positive).
func TestIncrementalEarlyExitMatchesBatchVerdict(t *testing.T) {
	b := faults.BugByName("mariadb-galera-10.7.3")
	found := false
	for seed := int64(1); seed <= 20; seed++ {
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 6, Txns: 40, Objects: 2,
			Dist: workload.Uniform, Seed: seed, ReadOnlyFrac: 0.1,
		})
		h := runner.Run(b.NewStore(seed), w, runner.Config{Retries: 2}).H
		inc := core.NewIncremental(core.SI)
		at := -1
		for i := range h.Txns {
			var vio *core.Result
			if h.HasInit && i == 0 {
				vio = inc.InitTxn(initKeys(h)...)
			} else {
				vio = inc.Add(h.Txns[i])
			}
			if vio != nil {
				at = i
				break
			}
		}
		if at < 0 {
			continue
		}
		found = true
		if coreCheck(h, core.SI).OK {
			t.Fatalf("seed %d: incremental rejected at txn %d but batch accepts", seed, at)
		}
		if at == len(h.Txns)-1 {
			continue
		}
		// The violating prefix must itself be rejected by the batch
		// checker: early exit is sound on the prefix, too.
		prefix := &history.History{Txns: h.Txns[:at+1], HasInit: h.HasInit}
		prefix.Sessions = make([][]int, len(h.Sessions))
		for s, ids := range h.Sessions {
			for _, id := range ids {
				if id <= at {
					prefix.Sessions[s] = append(prefix.Sessions[s], id)
				}
			}
		}
		if coreCheck(prefix, core.SI).OK {
			t.Fatalf("seed %d: prefix through txn %d accepted by batch", seed, at)
		}
	}
	if !found {
		t.Skip("lost update never manifested; covered by faults tests")
	}
}

func initKeys(h *history.History) []history.Key {
	var keys []history.Key
	for _, op := range h.Txns[0].Ops {
		keys = append(keys, op.Key)
	}
	return keys
}
