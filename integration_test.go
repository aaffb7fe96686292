// integration_test.go exercises the complete system across module
// boundaries: workload plan -> concurrent execution on the store ->
// history serialization round trip -> verification by every checker, on
// both healthy and fault-injected substrates, including the targeted
// anomaly-guided generator extension.
package main

import (
	"bytes"
	"context"
	"testing"

	"mtc/internal/core"
	"mtc/internal/elle"
	"mtc/internal/faults"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/npc"
	"mtc/internal/polygraph"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

// TestPipelineHealthyStoreAllCheckersAgree runs the full Figure-2 workflow
// on a fault-free serializable store and demands unanimity: MTC, Cobra,
// PolySI and Elle's register mode must all accept, across a JSON
// serialization round trip.
func TestPipelineHealthyStoreAllCheckersAgree(t *testing.T) {
	s := kv.NewStore(kv.ModeSerializable)
	w := workload.GenerateMT(workload.MTConfig{
		Sessions: 6, Txns: 80, Objects: 10, Dist: workload.Hotspot, Seed: 11, ReadOnlyFrac: 0.25,
	})
	res := runner.Run(s, w, runner.Config{Retries: 8})
	if res.Committed == 0 {
		t.Fatal("no commits")
	}

	var buf bytes.Buffer
	if err := history.WriteJSON(&buf, res.H); err != nil {
		t.Fatal(err)
	}
	h, err := history.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if r := coreCheck(h, core.SSER); !r.OK {
		t.Fatalf("MTC-SSER: %s", r.Explain())
	}
	if r := coreCheck(h, core.SER); !r.OK {
		t.Fatalf("MTC-SER: %s", r.Explain())
	}
	if r := coreCheck(h, core.SI); !r.OK {
		t.Fatalf("MTC-SI: %s", r.Explain())
	}
	if r := polyCheck(h, polygraph.SER); !r.OK {
		t.Fatalf("cobra: %+v", r)
	}
	if r := polyCheck(h, polygraph.SI); !r.OK {
		t.Fatalf("polysi: %+v", r)
	}
	if r := elle.CheckRWRegister(h, elle.SER); !r.OK {
		t.Fatalf("elle-wr: %s", r.Reason)
	}
}

// TestPipelineEveryBugCaughtByEveryApplicableChecker hunts each Table-II
// bug and cross-checks the verdict of the corresponding baseline.
func TestPipelineEveryBugCaughtByEveryApplicableChecker(t *testing.T) {
	for _, bug := range faults.Bugs() {
		if bug.LWT {
			continue // LWT checkers covered in runner/core tests
		}
		bug := bug
		t.Run(bug.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				s := bug.NewStore(seed)
				w := workload.GenerateMT(workload.MTConfig{
					Sessions: 8, Txns: 120, Objects: 3,
					Dist: workload.Exponential, Seed: seed, ReadOnlyFrac: 0.3,
				})
				h := runner.Run(s, w, runner.Config{Retries: 4}).H
				r := coreCheck(h, bug.Claimed)
				if r.OK {
					continue
				}
				// MTC found it; the baseline for that level must agree.
				switch bug.Claimed {
				case core.SER:
					if polyCheck(h, polygraph.SER).OK {
						t.Fatalf("seed %d: cobra disagrees with MTC-SER", seed)
					}
				case core.SI:
					if polyCheck(h, polygraph.SI).OK {
						t.Fatalf("seed %d: polysi disagrees with MTC-SI", seed)
					}
				}
				return
			}
			t.Fatalf("%s never manifested in 10 seeds", bug.Name)
		})
	}
}

// TestTargetedGeneratorFindsBugsFaster compares the anomaly-guided
// generator against the uniform one on the hardest bug of the catalogue
// (write skew needs a precise two-key race): the targeted plan should
// detect it in at least as many trials.
func TestTargetedGeneratorFindsBugsFaster(t *testing.T) {
	bug := faults.BugByName("postgresql-12.3")
	trials := 12
	detect := func(targeted bool) int {
		hits := 0
		for seed := int64(1); seed <= int64(trials); seed++ {
			s := bug.NewStore(seed)
			var w *workload.Workload
			if targeted {
				w = workload.GenerateTargeted(workload.TargetedConfig{
					Sessions: 8, Txns: 60, Objects: 10, Seed: seed,
				})
			} else {
				w = workload.GenerateMT(workload.MTConfig{
					Sessions: 8, Txns: 60, Objects: 10,
					Dist: workload.Uniform, Seed: seed, ReadOnlyFrac: 0.25,
				})
			}
			h := runner.Run(s, w, runner.Config{Retries: 4}).H
			if !coreCheck(h, core.SER).OK {
				hits++
			}
		}
		return hits
	}
	targeted, uniform := detect(true), detect(false)
	t.Logf("targeted %d/%d, uniform %d/%d", targeted, trials, uniform, trials)
	if targeted == 0 {
		t.Fatal("targeted generator found nothing")
	}
	if targeted < uniform {
		t.Fatalf("targeted (%d) should detect at least as often as uniform (%d)", targeted, uniform)
	}
}

// TestTargetedWorkloadValidOnHealthyStore guards against false positives:
// the aggressive plan must still verify clean on a correct store.
func TestTargetedWorkloadValidOnHealthyStore(t *testing.T) {
	s := kv.NewStore(kv.ModeSerializable)
	w := workload.GenerateTargeted(workload.TargetedConfig{
		Sessions: 8, Txns: 80, Objects: 6, Seed: 5,
	})
	res := runner.Run(s, w, runner.Config{Retries: 10})
	if r := coreCheck(res.H, core.SSER); !r.OK {
		t.Fatalf("healthy store must pass SSER under targeted load: %s", r.Explain())
	}
	if err := history.ValidateMT(res.H); err != nil {
		t.Fatal(err)
	}
}

// TestTextFormatInteropAcrossCheckers writes a faulty history in the text
// format, reads it back, and confirms the verdict survives.
func TestTextFormatInteropAcrossCheckers(t *testing.T) {
	bug := faults.BugByName("mariadb-galera-10.7.3")
	for seed := int64(1); seed <= 10; seed++ {
		s := bug.NewStore(seed)
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 8, Txns: 100, Objects: 2, Dist: workload.Uniform, Seed: seed,
		})
		h := runner.Run(s, w, runner.Config{Retries: 4}).H
		if coreCheck(h, core.SI).OK {
			continue
		}
		var buf bytes.Buffer
		if err := history.WriteText(&buf, h); err != nil {
			t.Fatal(err)
		}
		h2, err := history.ReadText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		r := coreCheck(h2, core.SI)
		if r.OK {
			t.Fatal("verdict changed across text round trip")
		}
		return
	}
	t.Skip("lost update did not manifest; covered elsewhere")
}

// TestBruteForceSpotCheckOnStoreHistory cross-validates the polynomial
// checkers against the exponential reference on a real (small) store run.
func TestBruteForceSpotCheckOnStoreHistory(t *testing.T) {
	s := kv.NewStore(kv.ModeSerializable)
	w := workload.GenerateMT(workload.MTConfig{
		Sessions: 3, Txns: 5, Objects: 2, Dist: workload.Uniform, Seed: 3,
	})
	h := runner.Run(s, w, runner.Config{Retries: 5}).H
	if coreCheck(h, core.SER).OK != npc.SerializableBrute(h) {
		t.Fatal("CheckSER disagrees with the brute-force reference")
	}
	if coreCheck(h, core.SSER).OK != npc.StrictSerializableBrute(h) {
		t.Fatal("CheckSSER disagrees with the brute-force reference")
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

// polyCheck runs the polygraph pipeline — Cobra at SER, PolySI at SI —
// serially on h.
func polyCheck(h *history.History, mode polygraph.Mode) polygraph.Report {
	r, _ := polygraph.Check(context.Background(), history.NewIndex(h), mode)
	return r
}

// coreReplay runs the online engine over h (window 0 = unbounded).
func coreReplay(h *history.History, lvl core.Level, window int) core.Result {
	r, _ := core.CheckIncrementalWindowedCtx(context.Background(), h, lvl, window)
	return r
}
