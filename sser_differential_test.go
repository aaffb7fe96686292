// sser_differential_test.go property-tests the one SSER rung
// (core.Deps.Rung at SSER: the SER cycle search plus the real-time
// inversion pass) against the paper's definition and across every way
// of reaching it. On every history of the profile and shard
// differential corpora and every fixture:
//
//   - the verdict equals "the dependency graph plus every real-time edge
//     (core.BuildDependency withRT, the Θ(n²) reference) is acyclic";
//   - `mtc` under any options, `profile`'s SSER rung and sharded `mtc`
//     report the same OK, anomalies and edge count — the dependency-edge
//     count, equal to SER's;
//   - a witness is a closed cycle inside one shard component, and one
//     that is not a plain dependency cycle is a dependency path closed
//     by exactly one RT edge whose endpoints are inverted on the raw
//     stamps.
package main

import (
	"context"
	"reflect"
	"testing"

	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/graph"
	"mtc/internal/history"
	"mtc/internal/shard"
)

// sserTally counts what sserCheck has seen, so the corpora tests can
// assert they exercised clean, cyclic and inverted histories alike.
type sserTally struct{ ok, anomalous, cyclic, inverted int }

// sserCheck cross-examines the SSER rung on one history.
func sserCheck(t *testing.T, h *history.History, tag string, tally *sserTally) {
	t.Helper()
	ctx := context.Background()
	run := func(name string, opts checker.Options) checker.Report {
		opts.Level = core.SSER
		rep, err := checker.Run(ctx, name, h, opts)
		if err != nil {
			t.Fatalf("%s: %s %+v: %v", tag, name, opts, err)
		}
		return rep
	}
	ref := run("mtc", checker.Options{})
	p := shard.Split(h)

	if len(ref.Anomalies) == 0 {
		g, _ := core.BuildDependency(h, true)
		if want := g.Acyclic(); ref.OK != want {
			t.Fatalf("%s: SSER OK=%v, reference graph acyclic=%v (%s)", tag, ref.OK, want, ref.Detail)
		}
		ser, err := checker.Run(ctx, "mtc", h, checker.Options{Level: core.SER})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Edges != ser.Edges {
			t.Fatalf("%s: SSER counts %d edges, SER %d", tag, ref.Edges, ser.Edges)
		}
	}
	switch {
	case ref.OK:
		tally.ok++
	case len(ref.Anomalies) > 0:
		tally.anomalous++
	case assertSSERWitness(t, p, ref.Cycle, tag):
		tally.inverted++
	default:
		tally.cyclic++
	}

	// The profiler runs the same rung: the reports agree field by field.
	if got := run("profile", checker.Options{}); got.OK != ref.OK || got.Edges != ref.Edges || got.Txns != ref.Txns ||
		!reflect.DeepEqual(got.Anomalies, ref.Anomalies) || !reflect.DeepEqual(got.Cycle, ref.Cycle) {
		t.Fatalf("%s: profile diverges from mtc\nmtc: %+v\ngot: %+v", tag, ref, got)
	}
	// Sharded: a witness never leaves its component, so the verdict is
	// exact and the edge count — dependency edges only — sums to the
	// unsharded one. (A pre-check failure skips graph construction in its
	// own component only, so edge counts compare on anomaly-free runs.)
	got := run("mtc", checker.Options{Shard: 2})
	if got.OK != ref.OK || got.Txns != ref.Txns ||
		!reflect.DeepEqual(canonAnomalies(got.Anomalies), canonAnomalies(ref.Anomalies)) {
		t.Fatalf("%s: sharded SSER diverges\nunsharded: %+v\nsharded:   %+v", tag, ref, got)
	}
	if len(ref.Anomalies) == 0 && got.Edges != ref.Edges {
		t.Fatalf("%s: sharded SSER counts %d edges, unsharded %d", tag, got.Edges, ref.Edges)
	}
	if !got.OK && len(got.Anomalies) == 0 {
		assertSSERWitness(t, p, got.Cycle, tag+"/sharded")
	}
}

// assertSSERWitness checks the shape of an SSER counterexample over the
// partition's source history and reports whether it is a real-time
// inversion (as opposed to a plain dependency cycle).
func assertSSERWitness(t *testing.T, p *shard.Partition, cycle []graph.Edge, tag string) bool {
	t.Helper()
	if len(cycle) == 0 {
		t.Fatalf("%s: violation without a witness", tag)
	}
	assertCycleWithinComponent(t, p, cycle, tag)
	rts := 0
	for i, e := range cycle {
		if next := cycle[(i+1)%len(cycle)]; e.To != next.From {
			t.Fatalf("%s: witness is not a closed cycle: %v", tag, cycle)
		}
		if e.Kind != graph.RT {
			continue
		}
		rts++
		a, b := &p.Source.Txns[e.From], &p.Source.Txns[e.To]
		if !a.Timed() || !b.Timed() || a.Finish >= b.Start {
			t.Fatalf("%s: RT edge %v is not real: T%d=[%d,%d] T%d=[%d,%d]",
				tag, e, a.ID, a.Start, a.Finish, b.ID, b.Start, b.Finish)
		}
	}
	if rts > 1 || rts == 1 && cycle[len(cycle)-1].Kind != graph.RT {
		t.Fatalf("%s: want a dependency path closed by one RT edge, got %v", tag, cycle)
	}
	return rts == 1
}

// TestSSERFixtures runs the cross-examination over the anomaly
// catalogue; the randomized corpora reach it through the profile and
// shard differentials.
func TestSSERFixtures(t *testing.T) {
	var tally sserTally
	for _, f := range history.Fixtures() {
		sserCheck(t, f.H, f.Name, &tally)
	}
	if tally.anomalous == 0 || tally.cyclic == 0 || tally.inverted == 0 {
		t.Fatalf("fixtures no longer cover every SSER outcome: %+v", tally)
	}
}
