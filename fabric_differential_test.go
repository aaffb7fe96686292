// fabric_differential_test.go property-tests the distributed checking
// fabric against single-node sharded verification: on a sample of the
// differential corpus (clean and fault-injected, MT and GT shaped,
// mixed tenant counts), a coordinator dispatching components across
// three workers must fold exactly the verdict shard.Check computes on
// one box — same OK bit, counts, anomaly set (external ids), and
// counterexample cycle. Only timings and prose may differ.
package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"mtc/internal/api"
	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/corpus"
	"mtc/internal/fabric"

	hist "mtc/internal/history"
	shardpkg "mtc/internal/shard"
)

// fabricEngines is the engine/level axis of the fabric differential.
var fabricEngines = []struct {
	name string
	lvl  checker.Level
}{
	{"mtc", core.SER},
	{"mtc", core.SI},
	{"mtc", core.SSER},
	{"mtc-incremental", core.SI},
}

// fabricCheck folds one history through an in-process coordinator with
// three simulated workers and compares against shard.Check.
func fabricCheck(t *testing.T, c *fabric.Coordinator, workers []api.WorkerLease, jobID, name string, lvl checker.Level, h *hist.History, tag string) {
	t.Helper()
	ctx := context.Background()
	if err := c.Submit(jobID, name, h, checker.Options{Level: lvl}); err != nil {
		t.Fatalf("%s/%s/%s: submit: %v", tag, name, lvl, err)
	}
	// Round-robin the workers over the ready queue until the plan
	// drains, so every job's components spread across all three.
	for idle := 0; idle < len(workers); {
		w := workers[0]
		workers = append(workers[1:], w)
		task, err := c.Pull(w.ID)
		if err != nil {
			t.Fatalf("%s: pull: %v", tag, err)
		}
		if task == nil {
			idle++
			continue
		}
		idle = 0
		// Decode the component payload straight to a columnar index, the
		// way fabric.RunWorker does.
		ix, err := hist.ReadMTCBIndexed(bytes.NewReader(task.HistoryMTCB))
		if err != nil {
			t.Fatalf("%s: decoding mtcb payload for %s/%d: %v", tag, task.Job, task.Component, err)
		}
		opts := checker.Options{Level: checker.Level(task.Level), Index: ix}
		rep, err := checker.Default.Run(ctx, task.Checker, ix.History(), opts)
		res := api.FabricResult{Job: task.Job, Component: task.Component, Epoch: task.Epoch}
		if err != nil {
			res.Error = err.Error()
		} else {
			res.Report = &rep
		}
		if accepted, err := c.PushResult(w.ID, res); err != nil || !accepted {
			t.Fatalf("%s: push %s/%d: accepted=%v err=%v", tag, task.Job, task.Component, accepted, err)
		}
	}
	got, err := c.Wait(ctx, jobID)
	if err != nil {
		t.Fatalf("%s/%s/%s: fabric job failed: %v", tag, name, lvl, err)
	}
	eng, err := checker.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := shardpkg.Check(ctx, eng, h, checker.Options{Level: lvl, Shard: 2})
	if err != nil {
		t.Fatalf("%s/%s/%s: single-node sharded run failed: %v", tag, name, lvl, err)
	}
	if got.OK != ref.OK || got.Edges != ref.Edges ||
		got.ShardComponents != ref.ShardComponents || got.Checker != ref.Checker || got.Level != ref.Level {
		t.Fatalf("%s/%s/%s: fabric verdict diverges\nfabric: %+v\nlocal:  %+v", tag, name, lvl, got, ref)
	}
	// Transaction counts always agree for the batch engines; the
	// incremental engine stops its replay at the first violation, and on
	// single-component histories shard.Check's direct-run shortcut keeps
	// that truncated count while the fabric always folds through Merge
	// (which reports the whole plan) — so compare only on clean verdicts.
	if batch := name != "mtc-incremental"; (batch || ref.OK) && got.Txns != ref.Txns {
		t.Fatalf("%s/%s/%s: txns %d, single-node sharded %d", tag, name, lvl, got.Txns, ref.Txns)
	}
	if !reflect.DeepEqual(canonAnomalies(got.Anomalies), canonAnomalies(ref.Anomalies)) {
		t.Fatalf("%s/%s/%s: anomaly sets diverge\nfabric: %v\nlocal:  %v", tag, name, lvl, got.Anomalies, ref.Anomalies)
	}
	if !reflect.DeepEqual(got.Cycle, ref.Cycle) {
		t.Fatalf("%s/%s/%s: counterexample cycles diverge\nfabric: %v\nlocal:  %v", tag, name, lvl, got.Cycle, ref.Cycle)
	}
	if got.StrongestLevel != ref.StrongestLevel {
		t.Fatalf("%s/%s/%s: strongest level %q vs %q", tag, name, lvl, got.StrongestLevel, ref.StrongestLevel)
	}
}

// TestDifferentialFabricVsSharded replays a sample of the differential
// corpus through the coordinator/worker fabric and asserts verdict
// equality with single-node sharded checking — the distributed
// correctness contract of the fabric.
func TestDifferentialFabricVsSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("fabric differential is slow under -short")
	}
	c, err := fabric.Open(filepath.Join(t.TempDir(), "fabric.wal"), fabric.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := c.Close(); cerr != nil {
			t.Fatalf("close: %v", cerr)
		}
	}()
	workers := []api.WorkerLease{
		c.Register(api.WorkerHello{Name: "w1"}),
		c.Register(api.WorkerHello{Name: "w2"}),
		c.Register(api.WorkerHello{Name: "w3"}),
	}
	jobs := 0
	histories := corpus.Differential(corpus.Shape{Seeds: 12, Sessions: 4, Objects: 3, Tenants: true, Bugs: 2},
		func(h *hist.History, tag string) {
			for _, e := range fabricEngines {
				jobs++
				fabricCheck(t, c, workers, fmt.Sprintf("d%d", jobs), e.name, e.lvl, h, tag)
			}
		})
	t.Logf("folded %d fabric jobs over %d histories across %d engine/level pairs", jobs, histories, len(fabricEngines))
}
