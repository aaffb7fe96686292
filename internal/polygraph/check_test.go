package polygraph

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"mtc/internal/core"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

// checkSER and checkSI run the pipeline serially, without a deadline.
func checkSER(h *history.History) Report {
	r, _ := Check(context.Background(), history.NewIndex(h), SER, 1)
	return r
}

func checkSI(h *history.History) Report {
	r, _ := Check(context.Background(), history.NewIndex(h), SI, 1)
	return r
}

func TestFixturesAgainstCobraAndPolySI(t *testing.T) {
	for _, f := range history.Fixtures() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			if got := checkSER(f.H); got.OK != !f.ViolatesSER {
				t.Errorf("cobra SER OK=%v, want %v (%+v)", got.OK, !f.ViolatesSER, got)
			}
			if got := checkSI(f.H); got.OK != !f.ViolatesSI {
				t.Errorf("polysi SI OK=%v, want %v (%+v)", got.OK, !f.ViolatesSI, got)
			}
		})
	}
}

func TestFixtureVerdicts(t *testing.T) {
	for _, f := range history.Fixtures() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			got := checkSI(f.H)
			if got.OK != !f.ViolatesSI {
				t.Fatalf("OK=%v, want %v (%+v)", got.OK, !f.ViolatesSI, got)
			}
		})
	}
}

func TestSerialHistoriesPass(t *testing.T) {
	h := history.SerialHistory(60, "x", "y", "z")
	if r := checkSER(h); !r.OK {
		t.Fatalf("serial history must be SER: %+v", r)
	}
	if r := checkSI(h); !r.OK {
		t.Fatalf("serial history must be SI: %+v", r)
	}
}

func TestSerialHistory(t *testing.T) {
	r := checkSI(history.SerialHistory(50, "x", "y"))
	if !r.OK {
		t.Fatalf("serial history must satisfy SI: %+v", r)
	}
	if r.Constraints != 0 {
		t.Fatalf("chain coalescing leaves no constraints on RMW chains, got %d", r.Constraints)
	}
}

func TestPruningResolvesMTChains(t *testing.T) {
	// On a serial MT history the RMW chains determine the entire WW
	// order, so pruning must eliminate every constraint.
	h := history.SerialHistory(80, "x", "y")
	r := checkSER(h)
	if !r.OK {
		t.Fatalf("%+v", r)
	}
	if r.Residual != 0 {
		t.Fatalf("RMW chains should leave no residual constraints, got %d of %d", r.Residual, r.Constraints)
	}
}

func TestBlindWritesReachSolver(t *testing.T) {
	// Two blind writers with a reader create genuine solver work.
	b := history.NewBuilder("x")
	b.Txn(0, history.R("x", 0), history.W("x", 1))
	b.Txn(1, history.R("x", 0), history.W("x", 2)) // divergence -> not SER
	h := b.Build()
	r := checkSER(h)
	if r.OK {
		t.Fatal("divergence is not serializable")
	}
}

func TestDivergenceRejectedBeforeSolver(t *testing.T) {
	b := history.NewBuilder("x")
	b.Txn(0, history.R("x", 0), history.W("x", 1))
	b.Txn(1, history.R("x", 0), history.W("x", 2))
	r := checkSI(b.Build())
	if r.OK {
		t.Fatal("divergence must violate SI")
	}
	if r.Solver.Decisions != 0 {
		t.Fatalf("SI pruning should settle divergence without solver decisions: %+v", r.Solver)
	}
}

func TestWriteSkewAcceptedUnderSI(t *testing.T) {
	f := history.FixtureByName("WriteSkew")
	if r := checkSI(f.H); !r.OK {
		t.Fatalf("write skew satisfies SI: %+v", r)
	}
}

func TestPreCheckRejects(t *testing.T) {
	f := history.FixtureByName("AbortedRead")
	r := checkSER(f.H)
	if r.OK || len(r.Anomalies) == 0 {
		t.Fatalf("pre-check must reject: %+v", r)
	}
}

func TestPreCheckRejectsSI(t *testing.T) {
	f := history.FixtureByName("ThinAirRead")
	r := checkSI(f.H)
	if r.OK || len(r.Anomalies) == 0 {
		t.Fatalf("pre-check must reject: %+v", r)
	}
}

// storeHistory runs an MT workload on a store and returns the history.
func storeHistory(t *testing.T, mode kv.Mode, f kv.Faults, seed int64, objects int) *history.History {
	t.Helper()
	s := kv.NewFaultyStore(mode, f)
	w := workload.GenerateMT(workload.MTConfig{
		Sessions: 6, Txns: 40, Objects: objects, Dist: workload.Uniform,
		Seed: seed, ReadOnlyFrac: 0.25,
	})
	return runner.Run(s, w, runner.Config{Retries: 5}).H
}

func TestPropertyCobraAgreesWithMTCSEROnStoreHistories(t *testing.T) {
	f := func(seed int64) bool {
		h := storeHistory(t, kv.ModeSerializable, kv.Faults{}, seed, 4)
		mtc := coreCheck(h, core.SER)
		cob := checkSER(h)
		if mtc.OK != cob.OK {
			t.Logf("seed=%d MTC=%v cobra=%v\n%s", seed, mtc.OK, cob.OK, mtc.Explain())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCobraAgreesOnFaultyHistories(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		faults := kv.Faults{Seed: seed + 1}
		switch rng.Intn(3) {
		case 0:
			faults.WriteSkew = 0.5
		case 1:
			faults.LostUpdate = 0.5
		case 2:
			faults.LongFork = 0.3
		}
		h := storeHistory(t, kv.ModeSerializable, faults, seed, 2)
		mtc := coreCheck(h, core.SER)
		cob := checkSER(h)
		if mtc.OK != cob.OK {
			t.Logf("seed=%d faults=%+v MTC=%v cobra=%v\n%s", seed, faults, mtc.OK, cob.OK, mtc.Explain())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPolySIAgreesWithMTCSI(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		faults := kv.Faults{Seed: seed + 1}
		mode := kv.ModeSI
		switch rng.Intn(4) {
		case 0:
			faults.LostUpdate = 0.5
		case 1:
			faults.DirtyAbort = 0.2
		case 2:
			faults.StaleSnapshot = 0.4
		case 3:
			// fault-free SI
		}
		h := storeHistory(t, mode, faults, seed, 3)
		mtc := coreCheck(h, core.SI)
		psi := checkSI(h)
		if mtc.OK != psi.OK {
			t.Logf("seed=%d faults=%+v MTC=%v polysi=%v\n%s", seed, faults, mtc.OK, psi.OK, mtc.Explain())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyWriteSkewHistoriesSIButNotSER(t *testing.T) {
	// SI-mode store histories: polysi must accept; cobra may reject when
	// a write skew occurred. Whenever cobra rejects, MTC-SER must too.
	f := func(seed int64) bool {
		h := storeHistory(t, kv.ModeSI, kv.Faults{}, seed, 2)
		if !checkSI(h).OK {
			t.Logf("seed=%d: fault-free SI store violated SI per polysi", seed)
			return false
		}
		return checkSER(h).OK == coreCheck(h, core.SER).OK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
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
