package faults

import (
	"context"
	"testing"

	"mtc/internal/core"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/levels"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

func TestCatalogueShape(t *testing.T) {
	bugs := Bugs()
	if len(bugs) != 6 {
		t.Fatalf("Table II lists 6 bugs, got %d", len(bugs))
	}
	names := map[string]bool{}
	for _, b := range bugs {
		if b.Name == "" || b.Anomaly == "" || b.Report == "" {
			t.Fatalf("incomplete bug entry: %+v", b)
		}
		if names[b.Name] {
			t.Fatalf("duplicate bug %s", b.Name)
		}
		names[b.Name] = true
	}
	if BugByName("mongodb-4.2.6") == nil || BugByName("nope") != nil {
		t.Fatal("BugByName lookup")
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

// hunt runs MT workloads against the bug's store over several seeds and
// reports whether the claimed level was violated, plus the first failing
// result.
func hunt(t *testing.T, b Bug, seeds int) (core.Result, bool) {
	t.Helper()
	for seed := int64(0); seed < int64(seeds); seed++ {
		if b.LWT {
			s := b.NewStore(seed + 1)
			res := runner.RunLWT(s, runner.LWTConfig{Sessions: 6, OpsPerSession: 50, Keys: 2, Seed: seed})
			if r := core.VLLWT(res.Ops); !r.OK {
				return core.Result{Level: core.SSER, OK: false}, true
			}
			continue
		}
		s := b.NewStore(seed + 1)
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 8, Txns: 120, Objects: 3, Dist: workload.Exponential,
			Seed: seed, ReadOnlyFrac: 0.3,
		})
		res := runner.Run(s, w, runner.Config{Retries: 4})
		if r := coreCheck(res.H, b.Claimed); !r.OK {
			return r, true
		}
	}
	return core.Result{}, false
}

func TestEachBugManifests(t *testing.T) {
	for _, b := range Bugs() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if _, found := hunt(t, b, 8); !found {
				t.Fatalf("%s: bug never manifested over 8 seeds", b.Name)
			}
		})
	}
}

func TestLostUpdateReportsDivergence(t *testing.T) {
	b := *BugByName("mariadb-galera-10.7.3")
	r, found := hunt(t, b, 8)
	if !found {
		t.Fatal("bug not found")
	}
	if r.Divergence == nil && len(r.Cycle) == 0 {
		t.Fatalf("want divergence or cycle counterexample: %s", r.Explain())
	}
}

func TestWriteSkewStoreStillSatisfiesSI(t *testing.T) {
	// The PostgreSQL write-skew bug degrades SER to SI: the SI checker
	// must keep passing while the SER checker rejects.
	b := *BugByName("postgresql-12.3")
	for seed := int64(0); seed < 8; seed++ {
		s := b.NewStore(seed + 1)
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 8, Txns: 120, Objects: 3, Dist: workload.Exponential, Seed: seed,
		})
		res := runner.Run(s, w, runner.Config{Retries: 4})
		if r := coreCheck(res.H, core.SI); !r.OK {
			t.Fatalf("seed %d: SI must hold on the write-skew store:\n%s", seed, r.Explain())
		}
		if r := coreCheck(res.H, core.SER); !r.OK {
			return // SER violation found, as expected
		}
	}
	t.Fatal("SER violation never found")
}

func TestMongoDirtyAbortYieldsAbortedRead(t *testing.T) {
	b := *BugByName("mongodb-4.2.6")
	for seed := int64(0); seed < 8; seed++ {
		s := b.NewStore(seed + 1)
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 6, Txns: 100, Objects: 3, Dist: workload.Uniform, Seed: seed,
		})
		res := runner.Run(s, w, runner.Config{Retries: 4})
		r := coreCheck(res.H, core.SI)
		if r.OK {
			continue
		}
		for _, a := range r.Anomalies {
			if a.Kind == history.AbortedRead {
				return
			}
		}
	}
	t.Fatal("AbortedRead anomaly never detected")
}

// TestLevelBugsBreakTheirRung profiles level-targeted workloads against
// each per-rung fault preset: the injected anomaly must manifest at
// exactly its lattice rung over some seed, and no seed may ever break a
// rung strictly below it (the fault stays localised).
func TestLevelBugsBreakTheirRung(t *testing.T) {
	lbs := LevelBugs()
	if len(lbs) != len(core.Lattice())-1 {
		t.Fatalf("LevelBugs covers %d rungs, want every breakable one (%d)", len(lbs), len(core.Lattice())-1)
	}
	for _, lb := range lbs {
		lb := lb
		t.Run(string(lb.Breaks), func(t *testing.T) {
			exact := false
			for seed := int64(0); seed < 12; seed++ {
				s := lb.NewStore(seed + 1)
				w := workload.GenerateLevelTargeted(lb.Breaks, workload.TargetedConfig{
					Sessions: 8, Txns: 80, Objects: 3, Seed: seed,
				})
				res := runner.Run(s, w, runner.Config{Retries: 4})
				prof, err := levels.Profile(context.Background(), history.NewIndex(res.H), levels.Options{})
				if err != nil {
					t.Fatal(err)
				}
				lowest := ""
				for _, lvl := range core.Lattice() { // weakest first
					if r := prof.Rung(lvl); !r.Res.OK {
						lowest = string(lvl)
						break
					}
				}
				if lowest != "" && core.LatticeRank(core.Level(lowest)) < core.LatticeRank(lb.Breaks) {
					t.Fatalf("seed %d: fault for %s broke %s below its rung:\n%s",
						seed, lb.Breaks, lowest, prof.Rung(core.Level(lowest)).Witness())
				}
				if lowest == string(lb.Breaks) {
					exact = true
				}
			}
			if !exact {
				t.Fatalf("fault never manifested at rung %s over 12 seeds", lb.Breaks)
			}
		})
	}
}

func TestFaultFreeControl(t *testing.T) {
	// Sanity: the same hunt on a fault-free store finds nothing.
	clean := Bug{Name: "control", Anomaly: "-", Claimed: core.SI, Mode: kv.ModeSI, Report: "-"}
	if _, found := hunt(t, clean, 4); found {
		t.Fatal("fault-free store reported a violation")
	}
}
