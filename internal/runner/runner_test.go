package runner

import (
	"context"
	"testing"

	"mtc/internal/core"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/workload"
)

func mtPlan(seed int64) *workload.Workload {
	return workload.GenerateMT(workload.MTConfig{
		Sessions: 4, Txns: 80, Objects: 6, Dist: workload.Uniform,
		Seed: seed, ReadOnlyFrac: 0.2,
	})
}

func TestRunSerializableStorePassesAllLevels(t *testing.T) {
	s := kv.NewStore(kv.ModeSerializable)
	res := Run(s, mtPlan(1), Config{Retries: 10})
	if res.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	if err := res.H.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := history.ValidateMT(res.H); err != nil {
		t.Fatal(err)
	}
	for _, lvl := range []core.Level{core.SSER, core.SER, core.SI} {
		if r := coreCheck(res.H, lvl); !r.OK {
			t.Fatalf("serializable store must satisfy %s:\n%s", lvl, r.Explain())
		}
	}
}

func TestRunSIStorePassesSI(t *testing.T) {
	s := kv.NewStore(kv.ModeSI)
	res := Run(s, mtPlan(2), Config{Retries: 10})
	if r := coreCheck(res.H, core.SI); !r.OK {
		t.Fatalf("fault-free SI store must satisfy SI:\n%s", r.Explain())
	}
}

func TestRun2PLStorePassesSSER(t *testing.T) {
	s := kv.NewStore(kv.Mode2PL)
	res := Run(s, mtPlan(3), Config{Retries: 50})
	if res.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	if r := coreCheck(res.H, core.SSER); !r.OK {
		t.Fatalf("2PL store must satisfy SSER:\n%s", r.Explain())
	}
}

func TestRunAccounting(t *testing.T) {
	s := kv.NewStore(kv.ModeSerializable)
	res := Run(s, mtPlan(4), Config{Retries: 10})
	if res.Attempts != res.Committed+res.Aborted {
		t.Fatalf("attempts %d != committed %d + aborted %d", res.Attempts, res.Committed, res.Aborted)
	}
	if got := int(s.Stats().Commits.Load()); got != res.Committed {
		t.Fatalf("store commits %d != runner committed %d", got, res.Committed)
	}
	if res.AbortRate() < 0 || res.AbortRate() > 1 {
		t.Fatalf("abort rate %f", res.AbortRate())
	}
}

func TestRunDropAborted(t *testing.T) {
	// High contention to force aborts, then drop them.
	w := workload.GenerateMT(workload.MTConfig{
		Sessions: 8, Txns: 50, Objects: 1, Dist: workload.Uniform, Seed: 5,
	})
	s := kv.NewStore(kv.ModeSerializable)
	res := Run(s, w, Config{Retries: 3, DropAborted: true})
	for i := range res.H.Txns {
		if !res.H.Txns[i].Committed {
			t.Fatal("aborted transaction recorded despite DropAborted")
		}
	}
	if res.Aborted == 0 {
		t.Log("warning: no aborts under extreme contention (unexpected but not fatal)")
	}
}

func TestRunKeepsAbortedByDefault(t *testing.T) {
	w := workload.GenerateMT(workload.MTConfig{
		Sessions: 8, Txns: 50, Objects: 1, Dist: workload.Uniform, Seed: 6,
	})
	s := kv.NewStore(kv.ModeSerializable)
	res := Run(s, w, Config{Retries: 3})
	aborted := 0
	for i := range res.H.Txns {
		if !res.H.Txns[i].Committed {
			aborted++
		}
	}
	if aborted != res.Aborted {
		t.Fatalf("history aborted %d != accounted %d", aborted, res.Aborted)
	}
}

func TestUniqueValuesAcrossSessions(t *testing.T) {
	s := kv.NewStore(kv.ModeSI)
	res := Run(s, mtPlan(7), Config{Retries: 10})
	if dups := history.NewIndex(res.H).Dups(); len(dups) != 0 {
		t.Fatalf("duplicate committed writes: %v", dups)
	}
}

func TestGTWorkloadHigherAbortRateThanMT(t *testing.T) {
	mt := workload.GenerateMT(workload.MTConfig{
		Sessions: 8, Txns: 60, Objects: 20, Dist: workload.Uniform, Seed: 8,
	})
	gt := workload.GenerateGT(workload.GTConfig{
		Sessions: 8, Txns: 60, Objects: 20, OpsPerTxn: 20, Seed: 8,
	})
	sMT := kv.NewStore(kv.ModeSerializable)
	sGT := kv.NewStore(kv.ModeSerializable)
	rMT := Run(sMT, mt, Config{Retries: 0})
	rGT := Run(sGT, gt, Config{Retries: 0})
	if rGT.AbortRate() <= rMT.AbortRate() {
		t.Fatalf("GT abort rate %.3f should exceed MT abort rate %.3f (Figure 11)",
			rGT.AbortRate(), rMT.AbortRate())
	}
}

func TestFaultyLostUpdateDetectedBySI(t *testing.T) {
	detected := false
	for seed := int64(0); seed < 5 && !detected; seed++ {
		s := kv.NewFaultyStore(kv.ModeSI, kv.Faults{LostUpdate: 1, Seed: seed + 1})
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 8, Txns: 100, Objects: 2, Dist: workload.Uniform, Seed: seed,
		})
		res := Run(s, w, Config{Retries: 5})
		r := coreCheck(res.H, core.SI)
		if !r.OK && r.Divergence != nil {
			detected = true
		}
	}
	if !detected {
		t.Fatal("LostUpdate fault never produced a DIVERGENCE under contention")
	}
}

func TestFaultyWriteSkewDetectedBySERNotSI(t *testing.T) {
	serViolated, siViolated := false, false
	for seed := int64(0); seed < 8 && !serViolated; seed++ {
		s := kv.NewFaultyStore(kv.ModeSerializable, kv.Faults{WriteSkew: 1, Seed: seed + 1})
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 8, Txns: 150, Objects: 2, Dist: workload.Uniform, Seed: seed,
		})
		res := Run(s, w, Config{Retries: 5})
		if r := coreCheck(res.H, core.SER); !r.OK && len(r.Cycle) > 0 {
			serViolated = true
			if rsi := coreCheck(res.H, core.SI); !rsi.OK {
				siViolated = true
			}
		}
	}
	if !serViolated {
		t.Fatal("WriteSkew fault never violated SER")
	}
	// With full WriteSkew injection the store degrades to SI, so SI itself
	// should hold on the same history.
	if siViolated {
		t.Fatal("WriteSkew-degraded store should still satisfy SI")
	}
}

func TestFaultyDirtyAbortDetected(t *testing.T) {
	s := kv.NewFaultyStore(kv.ModeSI, kv.Faults{DirtyAbort: 0.3, Seed: 1})
	w := workload.GenerateMT(workload.MTConfig{
		Sessions: 4, Txns: 100, Objects: 4, Dist: workload.Uniform, Seed: 9,
	})
	res := Run(s, w, Config{Retries: 2})
	r := coreCheck(res.H, core.SI)
	if r.OK {
		t.Fatal("dirty aborts must violate SI")
	}
	foundAbortedRead := false
	for _, a := range r.Anomalies {
		if a.Kind == history.AbortedRead {
			foundAbortedRead = true
		}
	}
	if !foundAbortedRead {
		t.Fatalf("expected AbortedRead anomaly, got: %s", r.Explain())
	}
}

func TestFaultyStaleSnapshotViolatesSSER(t *testing.T) {
	detected := false
	for seed := int64(0); seed < 5 && !detected; seed++ {
		s := kv.NewFaultyStore(kv.ModeSerializable, kv.Faults{StaleSnapshot: 0.5, Seed: seed + 1})
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 4, Txns: 100, Objects: 3, Dist: workload.Uniform, Seed: seed,
		})
		res := Run(s, w, Config{Retries: 5})
		if r := coreCheck(res.H, core.SSER); !r.OK {
			detected = true
		}
	}
	if !detected {
		t.Fatal("stale snapshots never violated SSER")
	}
}

func TestRunLWTFaultFreeLinearizable(t *testing.T) {
	s := kv.NewStore(kv.ModeSI)
	res := RunLWT(s, LWTConfig{Sessions: 6, OpsPerSession: 40, Keys: 3, Seed: 1})
	if res.Succeeded == 0 {
		t.Fatal("no LWT operations succeeded")
	}
	if r := core.VLLWT(res.Ops); !r.OK {
		t.Fatalf("fault-free LWT history must be linearizable: %s on %s", r.Reason, r.Key)
	}
}

func TestRunLWTCASFailApplyDetected(t *testing.T) {
	s := kv.NewFaultyStore(kv.ModeSI, kv.Faults{CASFailApply: 0.5, Seed: 2})
	res := RunLWT(s, LWTConfig{Sessions: 6, OpsPerSession: 40, Keys: 2, Seed: 2})
	if res.Failed == 0 {
		t.Skip("no CAS failures occurred; cannot exercise the fault")
	}
	if r := core.VLLWT(res.Ops); r.OK {
		t.Fatal("CASFailApply fault must break linearizability")
	}
}

// coreCheck runs the batch MTC pipeline on h. Under a background context
// the only error CheckCtx can return is a level without a batch engine.
func coreCheck(h *history.History, lvl core.Level) core.Result {
	r, err := core.CheckCtx(context.Background(), history.NewIndex(h), lvl)
	if err != nil {
		panic(err)
	}
	return r
}
