package mtc_test

import (
	"context"
	"testing"

	"mtc/pkg/mtc"
)

// TestProfilePublicSurface drives the lattice profiler through the
// public API only: build a fractured-read history, profile it, and
// check the strongest-level verdict plus rung/guarantee shapes.
func TestProfilePublicSurface(t *testing.T) {
	// T1 updates x and y atomically (reads make the version order
	// derivable); T2 reads T1's x but init's y — a fractured read:
	// violates RA (and everything above), not RC.
	b := mtc.NewHistoryBuilder("x", "y")
	b.Txn(0, mtc.Read("x", 0), mtc.Write("x", 1), mtc.Read("y", 0), mtc.Write("y", 1))
	b.Txn(1, mtc.Read("x", 1), mtc.Read("y", 0))
	rep, err := mtc.Profile(context.Background(), b.Build(), mtc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StrongestLevel != mtc.RC {
		t.Fatalf("strongest = %s, want RC", rep.StrongestLevel)
	}
	if len(rep.Rungs) != len(mtc.Levels()) {
		t.Fatalf("%d rungs, want %d", len(rep.Rungs), len(mtc.Levels()))
	}
	if len(rep.Guarantees) != 4 {
		t.Fatalf("%d guarantees, want 4", len(rep.Guarantees))
	}
	// The top-level verdict reflects the default requested level (SI),
	// so Profile drops in for a single-level Check.
	if rep.Level != mtc.SI || rep.OK {
		t.Fatalf("top-level verdict = %s ok=%v, want SI violated", rep.Level, rep.OK)
	}
}

// TestLevelsOrder pins the public lattice enumeration, weakest first.
func TestLevelsOrder(t *testing.T) {
	want := []mtc.Level{mtc.RC, mtc.RA, mtc.CAUSAL, mtc.SI, mtc.SER, mtc.SSER}
	got := mtc.Levels()
	if len(got) != len(want) {
		t.Fatalf("Levels() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Levels() = %v, want %v", got, want)
		}
	}
}

// TestShardOptionWorksThroughTheSDK: Options.Shard is the one sharding
// spelling, and the SDK links the driver behind it — a two-tenant
// history checks as two components under the engine's own name.
func TestShardOptionWorksThroughTheSDK(t *testing.T) {
	b := mtc.NewHistoryBuilder("a", "b")
	b.Txn(0, mtc.Read("a", 0), mtc.Write("a", 1))
	b.Txn(1, mtc.Read("b", 0), mtc.Write("b", 2))
	rep, err := mtc.Check(context.Background(), "mtc", b.Build(), mtc.Options{Level: mtc.SI, Shard: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.Checker != "mtc" || rep.ShardComponents != 2 {
		t.Fatalf("sharded report: %+v", rep)
	}
	if len(mtc.Checkers()) != 7 {
		t.Fatalf("registry lists %v, want the seven base engines", mtc.Checkers())
	}
}
