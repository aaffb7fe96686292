package levels

import (
	"context"
	"reflect"
	"testing"

	"mtc/internal/core"
	"mtc/internal/faults"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

func profile(t *testing.T, h *history.History) *Report {
	t.Helper()
	rep, err := Profile(context.Background(), history.NewIndex(h), Options{})
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	return rep
}

// Every fixture must land at exactly the rungs its expectations name,
// with monotone verdicts and a strongest level right below the first
// violated rung.
func TestProfileFixtures(t *testing.T) {
	for _, f := range history.Fixtures() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			rep := profile(t, f.H)
			if len(rep.Rungs) != len(core.Lattice()) {
				t.Fatalf("rungs = %d, want %d", len(rep.Rungs), len(core.Lattice()))
			}
			for _, v := range rep.Rungs {
				want := !f.Violates(string(v.Level))
				if v.Res.OK != want {
					t.Errorf("%s: OK = %v, want %v (witness %q)", v.Level, v.Res.OK, want, v.Witness())
				}
				if !v.Res.OK && v.Witness() == "" {
					t.Errorf("%s: violated rung has no witness", v.Level)
				}
			}
			// Monotonicity: once a rung fails, everything above fails.
			failed := false
			for _, v := range rep.Rungs {
				if failed && v.Res.OK {
					t.Fatalf("non-monotone lattice: %s passes above a failed rung", v.Level)
				}
				if !v.Res.OK {
					failed = true
				}
			}
			wantStrongest := None
			for _, lvl := range core.Lattice() {
				if f.Violates(string(lvl)) {
					break
				}
				wantStrongest = lvl
			}
			if rep.Strongest != wantStrongest {
				t.Fatalf("strongest = %s, want %s", rep.Strongest, wantStrongest)
			}
		})
	}
}

// CheckLevel must agree with Profile's rung on every fixture and level.
func TestCheckLevelAgreesWithProfile(t *testing.T) {
	ctx := context.Background()
	for _, f := range history.Fixtures() {
		rep := profile(t, f.H)
		for _, lvl := range core.Lattice() {
			res, err := CheckLevel(ctx, history.NewIndex(f.H), lvl, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", f.Name, lvl, err)
			}
			if res.OK != rep.Rung(lvl).Res.OK {
				t.Fatalf("%s/%s: CheckLevel OK=%v, profile rung OK=%v",
					f.Name, lvl, res.OK, rep.Rung(lvl).Res.OK)
			}
		}
	}
}

func TestProfileSerialHistory(t *testing.T) {
	rep := profile(t, history.SerialHistory(30, "x", "y"))
	if rep.Strongest != core.SSER {
		t.Fatalf("serial history strongest = %s, want SSER; breaks at %+v", rep.Strongest, rep.Breaking())
	}
	for _, v := range rep.Rungs {
		if !v.Res.OK {
			t.Fatalf("serial history violates %s", v.Level)
		}
	}
	for _, g := range rep.Guarantees {
		if !g.OK {
			t.Fatalf("serial history violates %s: %s", g.Guarantee, g.Witness)
		}
	}
	if rep.Breaking() != nil {
		t.Fatal("Breaking on a clean profile must be nil")
	}
}

// Blind writes leave version orders undetermined; the profiler must not
// invent violations out of incomparable versions.
func TestProfileBlindWrites(t *testing.T) {
	rep := profile(t, history.BlindWriteHistory(3, 5))
	if rep.Strongest != core.SSER {
		t.Fatalf("blind-write strongest = %s; breaks at %+v", rep.Strongest, rep.Breaking())
	}
	for _, g := range rep.Guarantees {
		if !g.OK {
			t.Fatalf("blind-write history flags %s: %s", g.Guarantee, g.Witness)
		}
	}
}

// A pre-check anomaly fails every rung and guarantee at once.
func TestProfilePreCheckShared(t *testing.T) {
	f := history.FixtureByName("AbortedRead")
	rep := profile(t, f.H)
	if rep.Strongest != None {
		t.Fatalf("strongest = %s, want NONE", rep.Strongest)
	}
	for _, v := range rep.Rungs {
		if v.Res.OK || len(v.Res.Anomalies) == 0 {
			t.Fatalf("%s: want shared pre-check anomalies", v.Level)
		}
		if v.Res.Anomalies[0].Kind != history.AbortedRead {
			t.Fatalf("%s: anomaly = %s", v.Level, v.Res.Anomalies[0].Kind)
		}
	}
	for _, g := range rep.Guarantees {
		if g.OK {
			t.Fatalf("%s must fail under a pre-check anomaly", g.Guarantee)
		}
	}
}

// The session-guarantee axis: one targeted history per guarantee.
func TestSessionGuarantees(t *testing.T) {
	find := func(rep *Report, g Guarantee) GuaranteeVerdict {
		for _, v := range rep.Guarantees {
			if v.Guarantee == g {
				return v
			}
		}
		t.Fatalf("guarantee %s missing", g)
		return GuaranteeVerdict{}
	}

	t.Run("RYW", func(t *testing.T) {
		// The session writes x then reads the pre-write value back.
		b := history.NewBuilder("x")
		b.Txn(0, history.R("x", 0), history.W("x", 1))
		b.Txn(0, history.R("x", 0))
		rep := profile(t, b.Build())
		if v := find(rep, ReadYourWrites); v.OK {
			t.Fatal("RYW must be violated")
		} else if v.Session != 0 {
			t.Fatalf("RYW session = %d", v.Session)
		}
		if v := find(rep, MonotonicWrites); !v.OK {
			t.Fatalf("MW must hold: %s", v.Witness)
		}
	})

	t.Run("MR", func(t *testing.T) {
		// The session reads version 1, then steps back to version 0,
		// without writing anything itself.
		b := history.NewBuilder("x")
		b.Txn(1, history.R("x", 0), history.W("x", 1))
		b.Txn(0, history.R("x", 1))
		b.Txn(0, history.R("x", 0))
		rep := profile(t, b.Build())
		if v := find(rep, MonotonicReads); v.OK {
			t.Fatal("MR must be violated")
		}
		if v := find(rep, ReadYourWrites); !v.OK {
			t.Fatalf("RYW must hold: %s", v.Witness)
		}
	})

	t.Run("MW", func(t *testing.T) {
		// The session's first write lands after its second in version
		// order: T1 reads the value T2 (later in the session) writes.
		b := history.NewBuilder("x")
		b.Txn(0, history.R("x", 2), history.W("x", 3))
		b.Txn(0, history.R("x", 0), history.W("x", 2))
		rep := profile(t, b.Build())
		if v := find(rep, MonotonicWrites); v.OK {
			t.Fatal("MW must be violated")
		}
	})

	t.Run("WFR", func(t *testing.T) {
		// The session reads version 2 of x, then writes a version that
		// lands BEFORE version 2 (another session's RMW chains 1 -> 2).
		b := history.NewBuilder("x")
		b.Txn(0, history.R("x", 2))
		b.Txn(1, history.R("x", 1), history.W("x", 2))
		b.Txn(0, history.R("x", 0), history.W("x", 1))
		rep := profile(t, b.Build())
		if v := find(rep, WritesFollowReads); v.OK {
			t.Fatal("WFR must be violated")
		}
	})
}

// Profile rung results must be bit-identical to the dedicated engines
// on the fixture corpus (the randomized differential suite at the repo
// root extends this to thousands of histories).
func TestProfileMatchesEnginesOnFixtures(t *testing.T) {
	ctx := context.Background()
	for _, f := range history.Fixtures() {
		rep := profile(t, f.H)
		for _, lvl := range []core.Level{core.SER, core.SI} {
			eng, err := core.CheckCtx(ctx, history.NewIndex(f.H), lvl)
			if err != nil {
				t.Fatalf("%s/%s: %v", f.Name, lvl, err)
			}
			v := rep.Rung(lvl)
			if eng.OK != v.Res.OK {
				t.Fatalf("%s/%s: engine OK=%v, rung OK=%v", f.Name, lvl, eng.OK, v.Res.OK)
			}
			if eng.NumEdges != v.Res.NumEdges {
				t.Fatalf("%s/%s: engine edges=%d, rung edges=%d", f.Name, lvl, eng.NumEdges, v.Res.NumEdges)
			}
			if len(eng.Cycle) != len(v.Res.Cycle) {
				t.Fatalf("%s/%s: engine cycle %d edges, rung %d", f.Name, lvl, len(eng.Cycle), len(v.Res.Cycle))
			}
			for i := range eng.Cycle {
				if eng.Cycle[i] != v.Res.Cycle[i] {
					t.Fatalf("%s/%s: cycle[%d] differs: %s vs %s", f.Name, lvl, i, eng.Cycle[i], v.Res.Cycle[i])
				}
			}
		}
	}
}

func TestLatticeRank(t *testing.T) {
	prev := -1
	for _, lvl := range core.Lattice() {
		r := core.LatticeRank(lvl)
		if r <= prev {
			t.Fatalf("rank(%s) = %d, not increasing", lvl, r)
		}
		prev = r
	}
	if core.LatticeRank(None) != -1 {
		t.Fatal("NONE must rank below the lattice")
	}
}

func TestCheckLevelCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CheckLevel(ctx, history.NewIndex(history.SerialHistory(5)), core.CAUSAL, Options{}); err == nil {
		t.Fatal("want context error")
	}
	if _, err := Profile(ctx, history.NewIndex(history.SerialHistory(5)), Options{}); err == nil {
		t.Fatal("want context error")
	}
}

// TestSERPassSettlesTheGuarantees: Profile skips the session-guarantee
// scan on a SER pass because a flagged guarantee closes a cycle in the
// shared graph. Run the scan anyway on a randomized corpus — clean MT
// histories from both strong stores, blind-write histories, the
// Table-II faults and the per-rung presets — and it finds nothing
// wherever the SER rung passed, while still biting below it.
func TestSERPassSettlesTheGuarantees(t *testing.T) {
	ctx := context.Background()
	serOK, flagged, histories := 0, 0, 0
	check := func(s *kv.Store, w *workload.Workload, tag string) {
		h := runner.Run(s, w, runner.Config{Retries: 2}).H
		ix := history.NewIndex(h)
		histories++
		if len(history.CheckInternalIndexed(ix)) > 0 {
			return
		}
		deps, err := core.BuildDependencyCtx(ctx, ix)
		if err != nil {
			t.Fatal(err)
		}
		d := &derived{Deps: deps}
		ser, err := d.Rung(ctx, core.SER)
		if err != nil {
			t.Fatal(err)
		}
		got := d.sessionGuarantees()
		switch {
		case ser.OK:
			serOK++
			if !reflect.DeepEqual(got, passedGuarantees()) {
				t.Fatalf("%s: SER passes but the scan flags %+v", tag, got)
			}
		case !reflect.DeepEqual(got, passedGuarantees()):
			flagged++
		}
	}
	var bugs []faults.Bug
	for _, b := range faults.Bugs() {
		if !b.LWT {
			bugs = append(bugs, b)
		}
	}
	for seed := int64(1); seed <= 60; seed++ {
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 3, Txns: 8, Objects: 3, Dist: workload.Uniform, Seed: seed, ReadOnlyFrac: 0.25,
		})
		check(kv.NewStore(kv.ModeSerializable), w, "serializable")
		check(kv.NewStore(kv.ModeSI), w, "si")
		check(kv.NewStore(kv.ModeSerializable), workload.GenerateGT(workload.GTConfig{
			Sessions: 3, Txns: 6, Objects: 3, OpsPerTxn: 3, Seed: seed,
		}), "gt")
		for i := 0; i < 4; i++ {
			b := bugs[(int(seed)+i)%len(bugs)]
			check(b.NewStore(seed), w, b.Name)
		}
		for _, lb := range faults.LevelBugs() {
			check(lb.NewStore(seed), workload.GenerateLevelTargeted(lb.Breaks, workload.TargetedConfig{
				Sessions: 4, Txns: 24, Objects: 3, Seed: seed,
			}), lb.Anomaly)
		}
	}
	if serOK < 100 || flagged < 20 {
		t.Fatalf("corpus of %d no longer covers both sides: %d SER passes, %d flagged scans", histories, serOK, flagged)
	}
}
