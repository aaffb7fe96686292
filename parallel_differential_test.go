// parallel_differential_test.go property-tests the parallel engine paths
// against their serial references: on every history — clean or
// fault-injected, MT or general-transaction shaped — every affected
// engine must return the identical verdict, anomaly list and edge count
// at parallelism 1, 2 and 4. This is the contract the Parallelism knob
// advertises (checker.Options): only wall-clock may change.
package main

import (
	"context"
	"reflect"
	"testing"

	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/corpus"
	"mtc/internal/history"
)

// parCheck runs one engine/level on one history at several parallelism
// settings and demands wire-identical reports.
func parCheck(t *testing.T, name string, lvl checker.Level, h *history.History, tag string) {
	t.Helper()
	ctx := context.Background()
	ref, err := checker.Run(ctx, name, h, checker.Options{Level: lvl, Parallelism: 1})
	if err != nil {
		t.Fatalf("%s/%s/%s: serial run failed: %v", tag, name, lvl, err)
	}
	for _, par := range []int{2, 4} {
		got, err := checker.Run(ctx, name, h, checker.Options{Level: lvl, Parallelism: par})
		if err != nil {
			t.Fatalf("%s/%s/%s par %d: %v", tag, name, lvl, par, err)
		}
		if got.OK != ref.OK {
			t.Fatalf("%s/%s/%s par %d: OK=%v, serial OK=%v\nserial detail: %s\npar detail: %s",
				tag, name, lvl, par, got.OK, ref.OK, ref.Detail, got.Detail)
		}
		if got.Txns != ref.Txns || got.Edges != ref.Edges {
			t.Fatalf("%s/%s/%s par %d: txns/edges %d/%d, serial %d/%d",
				tag, name, lvl, par, got.Txns, got.Edges, ref.Txns, ref.Edges)
		}
		if !reflect.DeepEqual(got.Anomalies, ref.Anomalies) {
			t.Fatalf("%s/%s/%s par %d: anomalies diverge\nserial: %v\npar:    %v",
				tag, name, lvl, par, ref.Anomalies, got.Anomalies)
		}
	}
}

// parEngines lists the (engine, level) pairs of the differential: the
// Cobra/PolySI prune pipelines, which have a parallel phase, and the MTC
// engine, which has none and must ignore the knob.
var parEngines = []struct {
	name string
	lvl  checker.Level
}{
	{"mtc", core.SER},
	{"mtc", core.SI},
	{"cobra", core.SER}, // parallel SER prune
	{"polysi", core.SI}, // parallel SI prune
}

// TestDifferentialSerialVsParallel replays >= 1000 randomized histories
// through every parallel-capable engine at parallelism 1, 2 and 4.
func TestDifferentialSerialVsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus is slow under -short")
	}
	histories := corpus.Differential(corpus.Shape{Seeds: 130, Sessions: 3, Objects: 4, Bugs: 5},
		func(h *history.History, tag string) {
			for _, e := range parEngines {
				parCheck(t, e.name, e.lvl, h, tag)
			}
		})
	if histories < 1000 {
		t.Fatalf("differential corpus too small: %d histories", histories)
	}
	t.Logf("compared %d histories across %d engine/level pairs at parallelism 1, 2, 4",
		histories, len(parEngines))
}
