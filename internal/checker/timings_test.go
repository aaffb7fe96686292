package checker

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"mtc/internal/core"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/phase"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

// phases lists a report's phase names in order.
func phases(rep Report) []string {
	var out []string
	for _, ph := range rep.Timings {
		out = append(out, ph.Phase)
	}
	return out
}

// casChain builds an LWT-shaped history of n serial compare-and-set
// transactions over four keys, each key's chain headed by an insert.
func casChain(n int) *history.History {
	b := history.NewBuilder()
	keys := []history.Key{"a", "b", "c", "d"}
	last := map[history.Key]history.Value{}
	for i := 0; i < n; i++ {
		k, v := keys[i%len(keys)], history.Value(i+1)
		at := int64(2*i + 1)
		if prev, ok := last[k]; ok {
			b.TimedTxn(i%3, at, at+1, history.R(k, prev), history.W(k, v))
		} else {
			b.TimedTxn(i%3, at, at+1, history.W(k, v))
		}
		last[k] = v
	}
	return b.Build()
}

// TestTimingsSumToWallClock runs every registered engine at each of its
// levels on a generated history of over 2 000 transactions, and
// porcupine on an LWT history: the timings name each phase once, one
// after another, so they sum to the wall clock around Check.
func TestTimingsSumToWallClock(t *testing.T) {
	w := workload.GenerateMT(workload.MTConfig{
		Sessions: 8, Txns: 260, Objects: 200, Dist: workload.Uniform, Seed: 3, ReadOnlyFrac: 0.2,
	})
	h := runner.Run(kv.NewStore(kv.ModeSerializable), w, runner.Config{Retries: 2}).H
	if len(h.Txns) < 2000 {
		t.Fatalf("generated %d transactions, want at least 2000", len(h.Txns))
	}
	lwt := casChain(400)
	ctx := context.Background()
	t.Logf("%d transactions", len(h.Txns))
	for _, c := range Default.All() {
		for _, lvl := range c.Levels() {
			hist := h
			if c.Name() == "porcupine" {
				hist = lwt
			}
			// A preemption between the clock reads around Check and the
			// recorder's own lands outside every lap; three tries keep a
			// loaded host from failing a table that sums correctly.
			for try := 0; try < 3; try++ {
				start := time.Now()
				rep, err := c.Check(ctx, hist, Options{Level: lvl})
				wall := float64(time.Since(start)) / float64(time.Millisecond)
				if err != nil {
					t.Fatalf("%s at %s: %v", c.Name(), lvl, err)
				}
				names := phases(rep)
				if len(names) == 0 {
					t.Fatalf("%s at %s: no timings", c.Name(), lvl)
				}
				sorted := slices.Clone(names)
				slices.Sort(sorted)
				if len(slices.Compact(sorted)) != len(names) {
					t.Fatalf("%s at %s: a phase named twice in %v", c.Name(), lvl, names)
				}
				sum := 0.0
				for _, ph := range rep.Timings {
					sum += ph.Millis
				}
				if math.Abs(wall-sum) <= 0.05*wall+0.2 {
					t.Logf("%-15s %-6s %8.3f ms of %8.3f ms: %v", c.Name(), lvl, sum, wall, names)
					break
				}
				if try == 2 {
					t.Fatalf("%s at %s: %v sum to %.3f ms, the check took %.3f ms", c.Name(), lvl, rep.Timings, sum, wall)
				}
			}
		}
	}
}

// TestEnginePhases pins the phases each engine laps on a clean history,
// with the index built by the adapter and handed in through
// Options.Index.
func TestEnginePhases(t *testing.T) {
	h := history.SerialHistory(50, "x", "y")
	ix := history.NewIndex(h)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		lvl  Level
		want []string
	}{
		{"mtc", core.SER, []string{"derive", "search"}},
		{"mtc", core.SSER, []string{"derive", "search", "inversion"}},
		{"profile", core.SER, []string{"derive", "rungs", "inversion"}},
		{"cobra", core.SER, []string{"precheck", "build", "prune", "solve"}},
		{"polysi", core.SI, []string{"precheck", "build", "prune", "solve"}},
		{"elle", core.SER, []string{"check"}},
		{"mtc-incremental", core.SER, []string{"replay"}},
	} {
		for _, opts := range []Options{{Level: tc.lvl, Index: ix}, {Level: tc.lvl}} {
			want := tc.want
			if opts.Index == nil && tc.name != "mtc-incremental" {
				want = append([]string{"index"}, want...)
			}
			rep, err := Run(ctx, tc.name, h, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := phases(rep); !slices.Equal(got, want) {
				t.Fatalf("%s at %s (index given: %v): phases %v, want %v", tc.name, tc.lvl, opts.Index != nil, got, want)
			}
		}
	}
	rep, err := Run(ctx, "porcupine", lwtHistory(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := phases(rep); !slices.Equal(got, []string{"convert", "solve"}) {
		t.Fatalf("porcupine phases %v", got)
	}
}

// TestPolygraphTimesOnlyThePhasesItRuns: a cobra/polysi check the INT
// pre-check rejects never builds, prunes or solves, and one whose
// pruning refutes never solves; their timings say so, and carry the
// pre-check and the adapter's index build.
func TestPolygraphTimesOnlyThePhasesItRuns(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		fixture string
		want    []string
	}{
		{"ThinAirRead", []string{"index", "precheck"}},
		{"G1cCycle", []string{"index", "precheck", "build", "prune"}},
	} {
		f := history.FixtureByName(tc.fixture)
		for _, run := range []struct {
			name string
			lvl  Level
		}{{"cobra", core.SER}, {"polysi", core.SI}} {
			rep, err := Run(ctx, run.name, f.H, Options{Level: run.lvl})
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK {
				t.Fatalf("%s accepts %s", run.name, tc.fixture)
			}
			if got := phases(rep); !slices.Equal(got, tc.want) {
				t.Fatalf("%s on %s: phases %v, want %v", run.name, tc.fixture, got, tc.want)
			}
		}
	}
}

// TestCheckTimingAllocs: timing a check costs Check at most two
// allocations, measured on a row whose adapter allocates nothing itself
// and laps as many phases as the polygraph pipeline (the engines' own
// counts move under -race, where sync.Pool drops items at random).
func TestCheckTimingAllocs(t *testing.T) {
	e := engine{name: "laps", levels: []Level{core.SER}, check: func(ctx context.Context, _ *history.History, _ Options) (Report, error) {
		for _, name := range []string{"index", "precheck", "build", "prune", "solve"} {
			phase.Lap(ctx, name)
		}
		return Report{OK: true}, nil
	}}
	h := history.SerialHistory(4, "x")
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() { e.Check(ctx, h, Options{Level: core.SER}) }); n > 2 {
		t.Fatalf("a timed check allocates %v, want at most 2", n)
	}
}
