// shard_bench_test.go benchmarks component-sharded verification on a
// multi-tenant history — the headline scaling of the shard layer. The
// workload is a fixed-seed 4-tenant GT history checked through the
// Cobra SER baseline (whose per-component prune/solve work dominates the
// O(n) partition pass); every engine runs serially, so the axis
// measures pure component fan-out: BenchmarkShard1 is the
// sharded-but-serial floor, BenchmarkShard4 the acceptance bar (>= 2x
// at 4 workers on 4 tenants on a multi-core host), and
// BenchmarkShardGOMAXPROCS whatever the host offers. On a single-core
// machine all three coincide.
//
// The second group prices the shard layer itself over a fixed-seed
// 4-tenant 10k-txn MT history, where the engine is cheap enough for the
// layer to show: BenchmarkShardSplit is the partition pass alone,
// BenchmarkShardMTC1 / BenchmarkShardMTCOff is what mtc at SI pays
// sharded (one worker: split, per-component indexes, merge) over the
// same check unsharded, and BenchmarkShardEncode is the split plus the
// MTCB encodings a distributed job is submitted with.
package main

import (
	"context"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"

	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/shard"
	"mtc/internal/workload"
)

var (
	shardBenchOnce sync.Once
	shardBenchHist *history.History
	shardBenchErr  error

	tenantMTOnce sync.Once
	tenantMTHist *history.History
	tenantMTErr  error

	indexSink *history.Index // keeps BenchmarkNewIndexTenant10k's build live
)

// shardBenchHistory executes the fixed 4-tenant GT plan once and
// reuses the resulting history across the Shard* benchmarks. Its digest
// is checked before every use.
func shardBenchHistory(b *testing.B) *history.History {
	shardBenchOnce.Do(func() {
		w := workload.GenerateGT(workload.GTConfig{
			Sessions: 8, Txns: 150, Objects: 8, OpsPerTxn: 4,
			Dist: workload.Uniform, Seed: 42, Tenants: 4,
		})
		shardBenchHist, shardBenchErr = runSerially(w)
	})
	if shardBenchErr != nil {
		b.Fatal(shardBenchErr)
	}
	d := fnv.New64a()
	if err := history.WriteJSON(d, shardBenchHist); err != nil || d.Sum64() != 0x64312cd3f9397306 {
		b.Fatalf("shard input drifted: %d txns, digest %#x (%v)", len(shardBenchHist.Txns), d.Sum64(), err)
	}
	return shardBenchHist
}

// runSerially executes w against a serializable store on one goroutine:
// round by round, transaction i of every session in session order. No
// scheduler decides the history, so every process checks the same one.
func runSerially(w *workload.Workload) (*history.History, error) {
	store := kv.NewStore(kv.ModeSerializable)
	store.Init(w.Keys)
	bld := history.NewBuilder(w.Keys...)
	writes := make([]int64, len(w.Sessions))
	for i := range w.Sessions[0] {
		for si, specs := range w.Sessions {
			tx := store.Begin()
			for _, op := range specs[i].Ops {
				var err error
				if op.Kind != workload.SpecWrite {
					_, err = tx.Read(op.Key)
				}
				if op.Kind != workload.SpecRead && err == nil {
					writes[si]++
					err = tx.Write(op.Key, history.Value(int64(si+1)<<20|writes[si]))
				}
				if err != nil {
					return nil, err
				}
			}
			if err := tx.Commit(); err != nil {
				return nil, err
			}
			bld.TimedTxn(si, tx.StartTS(), tx.FinishTS(), tx.Ops()...)
		}
	}
	return bld.Build(), nil
}

// benchShard checks the 4-tenant history through cobra, sharded with
// the given component worker bound.
func benchShard(b *testing.B, workers int) {
	h := shardBenchHistory(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := checker.Run(ctx, "cobra", h,
			checker.Options{Level: core.SER, Shard: workers})
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

// tenantMTHistory executes a fixed-seed 4-tenant MT workload of at least
// 10k transactions once, serially, and reuses it across the ShardSplit,
// ShardMTC and ShardEncode benchmarks. Its digest is checked before
// every use.
func tenantMTHistory(b *testing.B) *history.History {
	tenantMTOnce.Do(func() {
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 8, Txns: 1300, Objects: 200,
			Dist: workload.Zipfian, Seed: 5, ReadOnlyFrac: 0.2, Tenants: 4,
		})
		tenantMTHist, tenantMTErr = runSerially(w)
	})
	if tenantMTErr != nil {
		b.Fatal(tenantMTErr)
	}
	d := fnv.New64a()
	if err := history.WriteJSON(d, tenantMTHist); err != nil || d.Sum64() != 0x9d7401c1dbdb441b {
		b.Fatalf("tenant input drifted: %d txns, digest %#x (%v)", len(tenantMTHist.Txns), d.Sum64(), err)
	}
	return tenantMTHist
}

func BenchmarkShardSplit(b *testing.B) {
	h := tenantMTHistory(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := len(shard.Split(h).Components); n != 4 {
			b.Fatalf("%d components, want 4", n)
		}
	}
}

// BenchmarkShardEncode is what a distributed job's Submit encodes over
// the same history: the split, then the source history's MTCB (the WAL
// side file), then every component's (the task bodies), each cut from
// the key column the split interned.
func BenchmarkShardEncode(b *testing.B) {
	h := tenantMTHistory(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := shard.Split(h)
		if n := len(p.Components); n != 4 {
			b.Fatalf("%d components, want 4", n)
		}
		if _, err := p.SourceMTCB(); err != nil {
			b.Fatal(err)
		}
		for c := range p.Components {
			p.ComponentMTCB(c)
		}
	}
}

// benchShardMTC checks the 4-tenant MT history through mtc at SI with
// the given Shard setting (0: unsharded).
func benchShardMTC(b *testing.B, workers int) {
	h := tenantMTHistory(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := checker.Run(ctx, "mtc", h, checker.Options{Level: core.SI, Shard: workers})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK {
			b.Fatalf("clean history rejected: %s", rep.Detail)
		}
	}
}

func BenchmarkShardMTC1(b *testing.B) { benchShardMTC(b, 1) }

func BenchmarkShardMTCOff(b *testing.B) { benchShardMTC(b, 0) }

// BenchmarkNewIndexTenant10k is the unsharded index build over the same
// history: what the sharded path's per-component indexes add up against.
func BenchmarkNewIndexTenant10k(b *testing.B) {
	h := tenantMTHistory(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexSink = history.NewIndex(h)
	}
}
