package elle_test

import (
	"context"
	"strings"

	. "mtc/internal/elle"
	"testing"
	"testing/quick"

	"mtc/internal/core"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

// la builds a list-append history from transactions.
func la(txns ...Txn) *History {
	h := &History{}
	sessions := map[int][]int{}
	maxS := 0
	for i, t := range txns {
		t.ID = i
		h.Txns = append(h.Txns, t)
		sessions[t.Session] = append(sessions[t.Session], i)
		if t.Session > maxS {
			maxS = t.Session
		}
	}
	h.Sessions = make([][]int, maxS+1)
	for s, ids := range sessions {
		h.Sessions[s] = ids
	}
	return h
}

func app(k history.Key, v history.Value) Op    { return Op{Append: true, Key: k, Value: v} }
func rd(k history.Key, vs ...history.Value) Op { return Op{Key: k, List: vs} }

func TestCleanSerialListAppend(t *testing.T) {
	h := la(
		Txn{Session: 0, Committed: true, Ops: []Op{app("x", 1)}},
		Txn{Session: 0, Committed: true, Ops: []Op{rd("x", 1), app("x", 2)}},
		Txn{Session: 1, Committed: true, Ops: []Op{rd("x", 1, 2)}},
	)
	for _, lvl := range []Level{SER, SI} {
		if r := CheckListAppend(h, lvl); !r.OK {
			t.Fatalf("%s: %s", lvl, r.Reason)
		}
	}
}

func TestIncompatibleOrders(t *testing.T) {
	// Two reads observe forked lists: [1,2] vs [1,3].
	h := la(
		Txn{Session: 0, Committed: true, Ops: []Op{app("x", 1)}},
		Txn{Session: 0, Committed: true, Ops: []Op{app("x", 2)}},
		Txn{Session: 1, Committed: true, Ops: []Op{app("x", 3)}},
		Txn{Session: 2, Committed: true, Ops: []Op{rd("x", 1, 2)}},
		Txn{Session: 3, Committed: true, Ops: []Op{rd("x", 1, 3)}},
	)
	r := CheckListAppend(h, SI)
	if r.OK || !strings.Contains(r.Reason, "incompatible") {
		t.Fatalf("want incompatible orders, got %+v", r)
	}
}

func TestAbortedAppendObserved(t *testing.T) {
	h := la(
		Txn{Session: 0, Committed: false, Ops: []Op{app("x", 1)}},
		Txn{Session: 1, Committed: true, Ops: []Op{rd("x", 1)}},
	)
	r := CheckListAppend(h, SER)
	if r.OK || !strings.Contains(r.Reason, "G1a") {
		t.Fatalf("want G1a, got %+v", r)
	}
}

func TestThinAirElementObserved(t *testing.T) {
	h := la(
		Txn{Session: 0, Committed: true, Ops: []Op{rd("x", 99)}},
	)
	r := CheckListAppend(h, SER)
	if r.OK || !strings.Contains(r.Reason, "unwritten") {
		t.Fatalf("want thin-air, got %+v", r)
	}
}

func TestDuplicateAppendRejected(t *testing.T) {
	h := la(
		Txn{Session: 0, Committed: true, Ops: []Op{app("x", 1)}},
		Txn{Session: 1, Committed: true, Ops: []Op{app("x", 1)}},
	)
	r := CheckListAppend(h, SER)
	if r.OK || !strings.Contains(r.Reason, "duplicate") {
		t.Fatalf("want duplicate, got %+v", r)
	}
}

func TestOwnAppendsStripped(t *testing.T) {
	h := la(
		Txn{Session: 0, Committed: true, Ops: []Op{app("x", 1)}},
		Txn{Session: 0, Committed: true, Ops: []Op{app("x", 2), rd("x", 1, 2)}},
	)
	if r := CheckListAppend(h, SER); !r.OK {
		t.Fatalf("own append visible in read is fine: %s", r.Reason)
	}
	// Missing own append is an internal anomaly.
	bad := la(
		Txn{Session: 0, Committed: true, Ops: []Op{app("x", 1)}},
		Txn{Session: 0, Committed: true, Ops: []Op{app("x", 2), rd("x", 1)}},
	)
	if r := CheckListAppend(bad, SER); r.OK {
		t.Fatal("read missing own append must fail")
	}
}

func TestSERCycleViaFracturedRead(t *testing.T) {
	// T0 appends to both x and y; T1 observes the x append but reads y
	// empty: WR(x) T0->T1 plus RW(y) T1->T0, a G-single cycle that both
	// SER and SI forbid.
	h := la(
		Txn{Session: 0, Committed: true, Ops: []Op{app("x", 1), app("y", 2)}},
		Txn{Session: 1, Committed: true, Ops: []Op{rd("x", 1), rd("y")}},
	)
	r := CheckListAppend(h, SER)
	if r.OK {
		t.Fatal("fractured read cycle must violate SER")
	}
	if len(r.Cycle) == 0 {
		t.Fatalf("want cycle, got %+v", r)
	}
	if CheckListAppend(h, SI).OK {
		t.Fatal("must violate SI")
	}
}

func TestWriteSkewListAppendSIOnly(t *testing.T) {
	// Classic write skew on lists: T1 reads y empty, appends to x; T2
	// reads x empty, appends to y. SER rejects; SI admits.
	h := la(
		Txn{Session: 0, Committed: true, Ops: []Op{rd("y"), app("x", 1)}},
		Txn{Session: 1, Committed: true, Ops: []Op{rd("x"), app("y", 2)}},
		Txn{Session: 2, Committed: true, Ops: []Op{rd("x", 1), rd("y", 2)}},
	)
	if r := CheckListAppend(h, SER); r.OK {
		t.Fatal("write skew must violate SER")
	}
	if r := CheckListAppend(h, SI); !r.OK {
		t.Fatalf("write skew must satisfy SI: %s", r.Reason)
	}
}

func TestCheckRWRegisterOnFixtures(t *testing.T) {
	// Elle's register mode agrees with MTC on MT histories (everything is
	// RMW there), including admitting WriteSkew under SI.
	for _, f := range history.Fixtures() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			if got := CheckRWRegister(f.H, SER); got.OK != !f.ViolatesSER {
				t.Errorf("SER OK=%v want %v (%s)", got.OK, !f.ViolatesSER, got.Reason)
			}
			if got := CheckRWRegister(f.H, SI); got.OK != !f.ViolatesSI {
				t.Errorf("SI OK=%v want %v (%s)", got.OK, !f.ViolatesSI, got.Reason)
			}
		})
	}
}

func TestRWRegisterMissesBlindWriteAnomalies(t *testing.T) {
	// A lost update among blind writes: T1 and T2 blind-write x; a reader
	// sees only T1's value. With no reads before writes, the version
	// order is unknowable, so elle-wr must (soundly) pass - this is the
	// structural blind spot Figure 13 shows.
	b := history.NewBuilder("x")
	b.Txn(0, history.W("x", 1))
	b.Txn(1, history.W("x", 2))
	b.Txn(2, history.R("x", 1))
	h := b.Build()
	if r := CheckRWRegister(h, SER); !r.OK {
		t.Fatalf("blind-write ambiguity should not be flagged: %s", r.Reason)
	}
}

// TestRWRegisterSIWitnessIsStable: ⊥T writes x and y, and two RMW
// transactions both overwrite each key's initial value — a lost update
// on each key. The SI verdict names the first diverging (writer, key),
// T0 on x, on every run.
func TestRWRegisterSIWitnessIsStable(t *testing.T) {
	b := history.NewBuilder("x", "y")
	b.Txn(0, history.R("x", 0), history.W("x", 1), history.R("y", 0), history.W("y", 1))
	b.Txn(1, history.R("x", 0), history.W("x", 2), history.R("y", 0), history.W("y", 2))
	h := b.Build()
	reasons := map[string]int{}
	for i := 0; i < 64; i++ {
		reasons[CheckRWRegister(h, SI).Reason]++
	}
	if want := "diverging updates of T0 on x (lost update)"; len(reasons) != 1 || reasons[want] != 64 {
		t.Fatalf("64 runs gave reasons %v, want only %q", reasons, want)
	}
}

func TestListAppendStoreRunCleanHistories(t *testing.T) {
	s := kv.NewStore(kv.ModeSerializable)
	w := workload.GenerateListAppend(workload.ListAppendConfig{
		Sessions: 4, Txns: 50, Objects: 5, MaxTxnLen: 4, Seed: 3,
	})
	h, res := runner.RunListAppend(s, w, runner.Config{Retries: 8})
	if res.Committed == 0 {
		t.Fatal("nothing committed")
	}
	if r := CheckListAppend(h, SER); !r.OK {
		t.Fatalf("serializable store must pass elle-append SER: %s", r.Reason)
	}
}

func TestListAppendDetectsLostUpdateFault(t *testing.T) {
	found := false
	for seed := int64(0); seed < 8 && !found; seed++ {
		s := kv.NewFaultyStore(kv.ModeSI, kv.Faults{LostUpdate: 1, Seed: seed + 1})
		w := workload.GenerateListAppend(workload.ListAppendConfig{
			Sessions: 8, Txns: 60, Objects: 2, MaxTxnLen: 4, Seed: seed,
		})
		h, _ := runner.RunListAppend(s, w, runner.Config{Retries: 4})
		if r := CheckListAppend(h, SI); !r.OK {
			found = true
		}
	}
	if !found {
		t.Fatal("elle-append never detected the lost-update fault")
	}
}

func TestPropertySIStoreListAppendSatisfiesSI(t *testing.T) {
	f := func(seed int64) bool {
		s := kv.NewStore(kv.ModeSI)
		w := workload.GenerateListAppend(workload.ListAppendConfig{
			Sessions: 4, Txns: 30, Objects: 3, MaxTxnLen: 4, Seed: seed,
		})
		h, _ := runner.RunListAppend(s, w, runner.Config{Retries: 6})
		r := CheckListAppend(h, SI)
		if !r.OK {
			t.Logf("seed %d: %s", seed, r.Reason)
		}
		return r.OK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRegisterModeAgreesWithMTCOnMTHistories(t *testing.T) {
	f := func(seed int64) bool {
		s := kv.NewFaultyStore(kv.ModeSerializable, kv.Faults{WriteSkew: 0.5, Seed: seed + 1})
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 6, Txns: 40, Objects: 2, Dist: workload.Uniform, Seed: seed,
		})
		res := runner.Run(s, w, runner.Config{Retries: 4})
		if CheckRWRegister(res.H, SER).OK != coreCheck(res.H, core.SER).OK {
			return false
		}
		return CheckRWRegister(res.H, SI).OK == coreCheck(res.H, core.SI).OK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownLevelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	CheckListAppend(la(), Level("BOGUS"))
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
