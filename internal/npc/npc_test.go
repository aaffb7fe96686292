package npc

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

func TestSerialHistorySerializable(t *testing.T) {
	h := history.SerialHistory(8, "x", "y")
	if !SerializableBrute(h) {
		t.Fatal("serial history must be serializable")
	}
	if !StrictSerializableBrute(h) {
		t.Fatal("serial history must be strictly serializable")
	}
}

func TestFixturesAgainstBrute(t *testing.T) {
	// The brute checker decides view serializability without unique
	// values; on the unique-value MT fixtures it agrees with CheckSER.
	for _, f := range history.Fixtures() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			got := SerializableBrute(f.H)
			if got != !f.ViolatesSER {
				t.Fatalf("brute SER = %v, want %v", got, !f.ViolatesSER)
			}
		})
	}
}

func TestNonUniqueValuesSerializable(t *testing.T) {
	// Two transactions write the SAME value 7; a reader of 7 can be
	// explained by either. The unique-value checkers are inapplicable
	// here; the brute checker finds the witness.
	b := history.NewBuilder("x")
	b.Txn(0, history.R("x", 0), history.W("x", 7))
	b.Txn(1, history.R("x", 7), history.W("x", 7))
	b.Txn(2, history.R("x", 7))
	h := b.Build()
	if !SerializableBrute(h) {
		t.Fatal("ambiguous but serializable history rejected")
	}
}

func TestNonUniqueValuesNotSerializable(t *testing.T) {
	// x and y flip in incompatible orders: T1 reads (x=1,y=0), T2 reads
	// (x=0,y=1), with single writers setting x:=1 then y:=1 in one
	// session (so the writes are ordered). No witness order exists.
	b := history.NewBuilder("x", "y")
	wx := b.Txn(0, history.R("x", 0), history.W("x", 1))
	wy := b.Txn(0, history.R("y", 0), history.W("y", 1))
	_ = wx
	_ = wy
	b.Txn(1, history.R("x", 1), history.R("y", 0))
	b.Txn(2, history.R("x", 0), history.R("y", 1))
	h := b.Build()
	if SerializableBrute(h) {
		t.Fatal("long-fork-style history accepted")
	}
}

func TestStrictRequiresRealTime(t *testing.T) {
	// T1 finishes before T2 starts but T2 reads the pre-T1 value:
	// serializable (order T2, T1) yet not strictly serializable.
	b := history.NewBuilder("x")
	b.TimedTxn(0, 10, 20, history.R("x", 0), history.W("x", 1))
	b.TimedTxn(1, 30, 40, history.R("x", 0))
	h := b.Build()
	if !SerializableBrute(h) {
		t.Fatal("must be serializable")
	}
	if StrictSerializableBrute(h) {
		t.Fatal("must not be strictly serializable")
	}
}

func TestAbortedWritesNeverApply(t *testing.T) {
	b := history.NewBuilder("x")
	b.AbortedTxn(0, history.R("x", 0), history.W("x", 5))
	b.Txn(1, history.R("x", 5))
	h := b.Build()
	if SerializableBrute(h) {
		t.Fatal("reading an aborted write must not be serializable")
	}
}

func TestReadOfUninitializedKeyFails(t *testing.T) {
	b := history.NewBuilder() // no init
	b.Txn(0, history.R("x", 0))
	if SerializableBrute(b.Build()) {
		t.Fatal("read of absent key must fail")
	}
}

func TestPropertyBruteAgreesWithCheckSEROnMTHistories(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		faults := kv.Faults{Seed: seed + 1}
		if rng.Intn(2) == 0 {
			faults.WriteSkew = 0.6
		}
		s := kv.NewFaultyStore(kv.ModeSerializable, faults)
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 3, Txns: 4, Objects: 2, Dist: workload.Uniform, Seed: seed,
		})
		h := runner.Run(s, w, runner.Config{Retries: 3}).H
		want := coreCheck(h, core.SER).OK
		got := SerializableBrute(h)
		if want != got {
			t.Logf("seed=%d CheckSER=%v brute=%v", seed, want, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBruteSSERAgreesWithCheckSSER(t *testing.T) {
	f := func(seed int64) bool {
		s := kv.NewFaultyStore(kv.ModeSerializable, kv.Faults{StaleSnapshot: 0.5, Seed: seed + 1})
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 3, Txns: 4, Objects: 2, Dist: workload.Uniform, Seed: seed,
		})
		h := runner.Run(s, w, runner.Config{Retries: 3}).H
		want := coreCheck(h, core.SSER).OK
		got := StrictSerializableBrute(h)
		if want != got {
			t.Logf("seed=%d CheckSSER=%v brute=%v", seed, want, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
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
