// shard_bench_test.go benchmarks component-sharded verification on a
// multi-tenant history — the headline scaling of the shard layer. The
// workload is a fixed-seed 4-tenant GT history checked through the
// Cobra SER baseline (whose per-component prune/solve work dominates the
// O(n) partition pass), with the engine-internal parallelism pinned to 1
// so the axis measures pure component fan-out: BenchmarkShard1 is the
// sharded-but-serial floor, BenchmarkShard4 the acceptance bar (>= 2x
// at 4 workers on 4 tenants on a multi-core host), and
// BenchmarkShardGOMAXPROCS whatever the host offers. On a single-core
// machine all three coincide.
package main

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

var (
	shardBenchOnce sync.Once
	shardBenchHist *history.History
)

// shardBenchHistory executes the fixed 4-tenant GT workload once and
// reuses the resulting history across the Shard* benchmarks.
func shardBenchHistory() *history.History {
	shardBenchOnce.Do(func() {
		w := workload.GenerateGT(workload.GTConfig{
			Sessions: 8, Txns: 150, Objects: 8, OpsPerTxn: 4,
			Dist: workload.Uniform, Seed: 42, Tenants: 4,
		})
		shardBenchHist = runner.Run(kv.NewStore(kv.ModeSerializable), w, runner.Config{Retries: 4}).H
	})
	return shardBenchHist
}

// benchShard checks the 4-tenant history through cobra, sharded with
// the given component worker bound.
func benchShard(b *testing.B, workers int) {
	h := shardBenchHistory()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := checker.Run(ctx, "cobra", h,
			checker.Options{Level: core.SER, Parallelism: 1, Shard: workers})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK || rep.ShardComponents != 4 {
			b.Fatalf("unexpected report: ok=%v components=%d", rep.OK, rep.ShardComponents)
		}
	}
}

func BenchmarkShard1(b *testing.B) { benchShard(b, 1) }

func BenchmarkShard4(b *testing.B) { benchShard(b, 4) }

func BenchmarkShardGOMAXPROCS(b *testing.B) { benchShard(b, runtime.GOMAXPROCS(0)) }
