package checker

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mtc/internal/core"
	"mtc/internal/graph"
	"mtc/internal/history"
)

// TestRegistryContents checks that all engines register under their
// documented names with the documented levels.
func TestRegistryContents(t *testing.T) {
	want := map[string][]Level{
		"mtc":             {core.SI, core.SER, core.SSER, core.CAUSAL, core.RA, core.RC},
		"mtc-incremental": {core.SI, core.SER},
		"cobra":           {core.SER},
		"polysi":          {core.SI},
		"elle":            {core.SER, core.SI},
		"porcupine":       {core.SSER},
		"profile":         {core.SI, core.SER, core.SSER, core.CAUSAL, core.RA, core.RC},
	}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("registered %v, want %d checkers", names, len(want))
	}
	for name, lvls := range want {
		c, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Fatalf("checker %q reports name %q", name, c.Name())
		}
		got := c.Levels()
		if len(got) != len(lvls) {
			t.Fatalf("%s levels = %v, want %v", name, got, lvls)
		}
		for i := range lvls {
			if got[i] != lvls[i] {
				t.Fatalf("%s levels = %v, want %v", name, got, lvls)
			}
		}
	}
}

// TestRegistryErrors covers lookup and dispatch error paths.
func TestRegistryErrors(t *testing.T) {
	h := history.SerialHistory(4, "x")
	cases := []struct {
		name    string
		checker string
		level   Level
		errPart string
	}{
		{"unknown checker", "bogus", "", "unknown checker"},
		{"cobra cannot SI", "cobra", core.SI, "does not support level"},
		{"polysi cannot SER", "polysi", core.SER, "does not support level"},
		{"porcupine cannot SER", "porcupine", core.SER, "does not support level"},
		{"incremental cannot SSER", "mtc-incremental", core.SSER, "does not support level"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(context.Background(), tc.checker, h, Options{Level: tc.level})
			if err == nil || !strings.Contains(err.Error(), tc.errPart) {
				t.Fatalf("want error containing %q, got %v", tc.errPart, err)
			}
		})
	}
}

// TestDefaultLevels runs each checker with an empty level and checks the
// applied default.
func TestDefaultLevels(t *testing.T) {
	h := history.SerialHistory(4, "x")
	for name, def := range map[string]Level{
		"mtc": core.SI, "mtc-incremental": core.SI,
		"cobra": core.SER, "polysi": core.SI, "elle": core.SER,
	} {
		v, err := Run(context.Background(), name, h, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.Level != def {
			t.Fatalf("%s default level = %s, want %s", name, v.Level, def)
		}
		if !v.OK {
			t.Fatalf("%s rejects a serial history: %+v", name, v)
		}
	}
}

// TestAllCheckersAgreeOnFixture runs every applicable checker on the
// write-skew fixture: SER checkers must reject, SI checkers accept.
func TestAllCheckersAgreeOnFixture(t *testing.T) {
	f := history.FixtureByName("WriteSkew")
	for _, name := range []string{"mtc", "mtc-incremental", "cobra", "elle"} {
		v, err := Run(context.Background(), name, f.H, Options{Level: core.SER})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.OK {
			t.Fatalf("%s accepts write skew at SER", name)
		}
	}
	for _, name := range []string{"mtc", "mtc-incremental", "polysi"} {
		v, err := Run(context.Background(), name, f.H, Options{Level: core.SI})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !v.OK {
			t.Fatalf("%s rejects write skew at SI: %+v", name, v)
		}
	}
}

// lwtHistory builds an LWT-shaped history: inserts head each key's write
// chain, CAS transactions extend it.
func lwtHistory() *history.History {
	b := history.NewBuilder()
	b.TimedTxn(0, 1, 2, history.W("x", 1))                    // insert
	b.TimedTxn(0, 3, 4, history.R("x", 1), history.W("x", 2)) // CAS 1->2
	b.TimedTxn(1, 5, 6, history.R("x", 2), history.W("x", 3)) // CAS 2->3
	return b.Build()
}

// TestPorcupineAdapter covers the LWT conversion, both shapes.
func TestPorcupineAdapter(t *testing.T) {
	v, err := Run(context.Background(), "porcupine", lwtHistory(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK {
		t.Fatalf("linearizable LWT history rejected: %+v", v)
	}

	// A stale CAS: two successful CAS of the same expected value.
	b := history.NewBuilder()
	b.TimedTxn(0, 1, 2, history.W("x", 1))
	b.TimedTxn(0, 3, 4, history.R("x", 1), history.W("x", 2))
	b.TimedTxn(1, 5, 6, history.R("x", 1), history.W("x", 3))
	v, err = Run(context.Background(), "porcupine", b.Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Fatalf("lost-update LWT history accepted: %+v", v)
	}

	// Not LWT-shaped: a two-key transaction.
	b = history.NewBuilder("x", "y")
	b.Txn(0, history.R("x", 0), history.W("x", 1), history.R("y", 0), history.W("y", 2))
	_, err = Run(context.Background(), "porcupine", b.Build(), Options{})
	if !IsUnsupported(err) {
		t.Fatalf("non-LWT history must return an UnsupportedHistoryError, got %v", err)
	}
}

// TestLWTFromHistoryInit converts ⊥T into per-key inserts.
func TestLWTFromHistoryInit(t *testing.T) {
	b := history.NewBuilder("x", "y")
	b.TimedTxn(0, 1, 2, history.R("x", 0), history.W("x", 1))
	ops, err := LWTFromHistory(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 { // 2 inserts from init + 1 CAS
		t.Fatalf("ops = %v", ops)
	}
	if ops[0].Kind != core.LWTInsert || ops[2].Kind != core.LWTRW {
		t.Fatalf("kinds wrong: %v", ops)
	}
}

// TestRegistryIsolation confirms a private registry does not leak into
// the default one.
func TestRegistryIsolation(t *testing.T) {
	var reg Registry
	mtc, _ := Lookup("mtc")
	reg.Register(mtc)
	if n := len(reg.Names()); n != 1 {
		t.Fatalf("private registry has %d checkers", n)
	}
	if _, err := reg.Lookup("cobra"); err == nil {
		t.Fatal("cobra must not be in the private registry")
	}
	if _, err := Lookup("cobra"); err != nil {
		t.Fatalf("default registry lost cobra: %v", err)
	}
}

// TestShardWithoutDriverIsAnError: this test binary does not link
// internal/shard, so no driver is installed — Run must refuse
// Options.Shard > 0 loudly instead of checking unsharded.
func TestShardWithoutDriverIsAnError(t *testing.T) {
	if ShardCheck != nil {
		t.Skip("a sharding driver is linked into this binary")
	}
	_, err := Run(context.Background(), "mtc", history.SerialHistory(4, "x"), Options{Level: core.SI, Shard: 2})
	if err == nil || !strings.Contains(err.Error(), "internal/shard") {
		t.Fatalf("want the missing-driver error, got %v", err)
	}
}

// TestIndexConsumersHonorOptionsIndex: every adapter that checks over
// the columnar index (not just mtc) takes a prebuilt Options.Index — the
// report is identical to the run that builds its own, and the run
// allocates less because it skips the intern-and-build pass. An index of
// some other history fails the identity check and is rebuilt.
func TestIndexConsumersHonorOptionsIndex(t *testing.T) {
	h := history.SerialHistory(300, "x", "y", "z")
	ix := history.NewIndex(h)
	foreign := history.NewIndex(history.FixtureByName("WriteSkew").H)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		lvl  Level
	}{
		{"mtc", core.SER}, {"profile", core.SER}, {"mtc", core.RC}, {"mtc", core.RA}, {"mtc", core.CAUSAL},
		{"cobra", core.SER}, {"polysi", core.SI}, {"elle", core.SER}, {"elle", core.SI},
	} {
		run := func(ix *history.Index) Report {
			rep, err := Run(ctx, tc.name, h, Options{Level: tc.lvl, Index: ix})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			rep.Timings = nil // wall-clock differs, nothing else may
			return rep
		}
		own := run(nil)
		if got := run(ix); !reflect.DeepEqual(got, own) {
			t.Fatalf("%s: report with a prebuilt index diverges:\n%+v\n%+v", tc.name, got, own)
		}
		if got := run(foreign); !reflect.DeepEqual(got, own) {
			t.Fatalf("%s: an index of another history must be ignored:\n%+v\n%+v", tc.name, got, own)
		}
		building := testing.AllocsPerRun(5, func() { run(nil) })
		prebuilt := testing.AllocsPerRun(5, func() { run(ix) })
		if prebuilt >= building {
			t.Fatalf("%s: %v allocs with a prebuilt index, %v without — the index was rebuilt", tc.name, prebuilt, building)
		}
	}
}

// TestSSERAllocationIsLinear: the default SSER path must not materialize
// the real-time order. A 5 000-transaction serial history has ~12.5 M
// real-time pairs — over 2 GB as edges — while the rung's own state is a
// handful of n-sized arrays.
func TestSSERAllocationIsLinear(t *testing.T) {
	h := history.SerialHistory(5000, "x", "y")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Run(context.Background(), "mtc", h, Options{Level: core.SSER})
	runtime.ReadMemStats(&after)
	if err != nil || !rep.OK {
		t.Fatalf("serial history at SSER: %+v, %v", rep, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 32<<20 {
		t.Fatalf("SSER on %d txns allocated %d MB, want < 32 MB", len(h.Txns), got>>20)
	}
}

// TestReportExplain pins the one verdict renderer: the OK line, the
// anomaly list and its truncation, the witness Detail of a divergence
// and of a cycle, and a profile's rungs (strongest first) and
// guarantees.
func TestReportExplain(t *testing.T) {
	ok := Report{Checker: "mtc-incremental", Level: core.SER, OK: true, Txns: 3, Edges: 4, CompactedEpochs: 2}
	if got, want := ok.Explain(), "[mtc-incremental] history satisfies SER (3 txns, 4 dependency edges, 2 epochs compacted)"; got != want {
		t.Fatalf("OK line:\n got %q\nwant %q", got, want)
	}

	var as []history.Anomaly
	for i := range 6 {
		as = append(as, history.Anomaly{Kind: history.ThinAirRead, Txn: i, Key: "x", Value: history.Value(i)})
	}
	bad := Report{Checker: "mtc", Level: core.SI, Anomalies: as}
	want := "[mtc] history VIOLATES SI:"
	for _, a := range as[:5] {
		want += "\n  " + a.String()
	}
	want += "\n  ... and 1 more anomalies"
	if got := bad.Explain(); got != want {
		t.Fatalf("six anomalies:\n got %q\nwant %q", got, want)
	}

	ctx := context.Background()
	rep, err := Run(ctx, "mtc", history.SerialHistory(3), Options{Level: core.SER})
	if err != nil || !strings.Contains(rep.Explain(), "satisfies SER") {
		t.Fatalf("serial history: %v %q", err, rep.Explain())
	}
	rep, err = Run(ctx, "mtc", history.FixtureByName("LostUpdate").H, Options{Level: core.SI})
	if got := rep.Explain(); err != nil || !strings.Contains(got, "VIOLATES SI") ||
		!strings.HasSuffix(got, "\n  "+rep.Detail) || !strings.HasPrefix(rep.Detail, "DIVERGENCE on x") {
		t.Fatalf("LostUpdate: %v %q", err, got)
	}
	rep, err = Run(ctx, "mtc", history.FixtureByName("WriteSkew").H, Options{Level: core.SER})
	if got := rep.Explain(); err != nil || len(rep.Cycle) == 0 || !strings.HasSuffix(got, "\n  "+graph.FormatCycle(rep.Cycle)) {
		t.Fatalf("WriteSkew: %v %q", err, got)
	}

	prof := Report{
		Checker: "profile", Level: core.SER, StrongestLevel: core.SI, Txns: 2, Detail: "T0 -RW(x)-> T1 -RW(y)-> T0",
		Rungs: []RungVerdict{
			{Level: core.RC, OK: true}, {Level: core.RA, OK: true}, {Level: core.CAUSAL, OK: true}, {Level: core.SI, OK: true},
			{Level: core.SER, Witness: "T0 -RW(x)-> T1 -RW(y)-> T0"}, {Level: core.SSER, Witness: "T0 -RW(x)-> T1 -RW(y)-> T0"},
		},
		Guarantees: []GuaranteeVerdict{
			{Guarantee: core.ReadYourWrites, OK: true, Session: -1}, {Guarantee: core.MonotonicReads, Session: 1, Witness: "T1 reads back"},
		},
	}
	want = `[profile] history VIOLATES SER:
  T0 -RW(x)-> T1 -RW(y)-> T0
strongest level satisfied: SI
  SSER   VIOLATED: T0 -RW(x)-> T1 -RW(y)-> T0
  SER    VIOLATED: T0 -RW(x)-> T1 -RW(y)-> T0
  SI     ok
  CAUSAL ok
  RA     ok
  RC     ok
  RYW    ok
  MR     VIOLATED: T1 reads back`
	if got := prof.Explain(); got != want {
		t.Fatalf("profile:\n got %q\nwant %q", got, want)
	}
}
