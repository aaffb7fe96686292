// incremental_bench_test.go benchmarks the online incremental checker
// against the batch MTC algorithms on a 10k-transaction history (the
// acceptance bar of the unified-checker refactor), plus the per-commit
// streaming cost of feeding an Incremental one transaction at a time.
package main

import (
	"context"
	"hash/fnv"
	"sort"
	"sync"
	"testing"

	"mtc/internal/core"
	"mtc/internal/graph"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

var (
	bigOnce   sync.Once
	bigHist   *history.History // >= 10k committed txns, serializable store
	bigDigest uint64
)

// setupBig builds bigHist once per process. runner.Run schedules its
// sessions on goroutines, so the history — its size, and with it every
// allocs and B/op row built on it — moves from one process to the next;
// each benchmark logs the input it measured, its size and FNV-64a digest,
// so a gate breach names the input it read.
func setupBig(b *testing.B) {
	bigOnce.Do(func() {
		s := kv.NewStore(kv.ModeSerializable)
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 10, Txns: 1200, Objects: 200,
			Dist: workload.Zipfian, Seed: 5, ReadOnlyFrac: 0.2,
		})
		bigHist = runner.Run(s, w, runner.Config{Retries: 8, DropAborted: true}).H
		d := fnv.New64a()
		if err := history.WriteJSON(d, bigHist); err != nil {
			panic(err)
		}
		bigDigest = d.Sum64()
	})
	if len(bigHist.Txns) < 10000 {
		b.Fatalf("big history too small: %d txns", len(bigHist.Txns))
	}
	b.Logf("input: %d txns, digest %#x", len(bigHist.Txns), bigDigest)
}

func BenchmarkBatchSER10k(b *testing.B) {
	setupBig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !coreCheck(bigHist, core.SER).OK {
			b.Fatal("valid history rejected")
		}
	}
}

// BenchmarkBatchSSER10k is BenchmarkBatchSER10k plus the real-time
// inversion pass: what SSER costs over SER on the same derivation.
func BenchmarkBatchSSER10k(b *testing.B) {
	setupBig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !coreCheck(bigHist, core.SSER).OK {
			b.Fatal("valid history rejected")
		}
	}
}

func BenchmarkIncrementalSER10k(b *testing.B) {
	setupBig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !coreReplay(bigHist, core.SER, 0).OK {
			b.Fatal("valid history rejected")
		}
	}
}

func BenchmarkBatchSI10k(b *testing.B) {
	setupBig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !coreCheck(bigHist, core.SI).OK {
			b.Fatal("valid history rejected")
		}
	}
}

// BenchmarkProfile10k measures the full lattice profile — every
// isolation level plus the session guarantees — on the same clean 10k
// history. On a clean history the implication chain short-circuits
// after the SER cycle check, so the whole profile must stay within 1.5×
// of BenchmarkBatchSER10k alone; CI gates that ratio (docs/ci.md).
func BenchmarkProfile10k(b *testing.B) {
	setupBig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof, err := core.ProfileCtx(context.Background(), history.NewIndex(bigHist))
		if err != nil {
			b.Fatal(err)
		}
		if prof.Strongest != core.SSER && prof.Strongest != core.SER {
			b.Fatalf("valid history profiled at %s", prof.Strongest)
		}
	}
}

func BenchmarkIncrementalSI10k(b *testing.B) {
	setupBig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !coreReplay(bigHist, core.SI, 0).OK {
			b.Fatal("valid history rejected")
		}
	}
}

// BenchmarkIndexedDeps10k measures pure dependency derivation over a
// prebuilt columnar index: merge-joins over interned key columns with
// postings lookups, no per-transaction map probes. The allocs/op this
// reports is the point of the columnar layout — a handful of flat
// scratch arenas per call, far below one allocation per transaction —
// and the CI bench gate holds it there (see bench/baseline.json).
func BenchmarkIndexedDeps10k(b *testing.B) {
	setupBig(b)
	benchIndexedDeps(b, bigHist)
}

var (
	wideOnce sync.Once
	wideHist *history.History // setupBig's generator over 4000 keys: a 20x wider init transaction
)

// BenchmarkIndexedDeps10kWide is BenchmarkIndexedDeps10k over 4000 keys
// instead of 200. Every key's initial value is the init transaction's, so
// its WR segment holds thousands of readers and its WW segment one
// overwriter per key; a pass C that compared the two segments pair by
// pair cost 3.7x the narrow history here. CI holds the ratio of the two
// (bench/baseline.json).
func BenchmarkIndexedDeps10kWide(b *testing.B) {
	wideOnce.Do(func() {
		s := kv.NewStore(kv.ModeSerializable)
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 10, Txns: 1200, Objects: 4000,
			Dist: workload.Zipfian, Seed: 5, ReadOnlyFrac: 0.2,
		})
		wideHist = runner.Run(s, w, runner.Config{Retries: 8, DropAborted: true}).H
	})
	benchIndexedDeps(b, wideHist)
}

func benchIndexedDeps(b *testing.B, h *history.History) {
	ix := history.NewIndex(h)
	edges := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edges = 0
		if _, err := core.DeriveDepsCtx(context.Background(), ix, func(graph.Edge) { edges++ }); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if edges == 0 {
		b.Fatal("no dependency edges derived")
	}
	b.ReportMetric(float64(edges), "edges")
}

// BenchmarkIncrementalPerCommit measures the amortized cost of one Add on
// a live stream (commit order), the number that bounds checker-side
// latency under production traffic.
func BenchmarkIncrementalPerCommit(b *testing.B) {
	setupBig(b)
	keys := make([]history.Key, 0, len(bigHist.Txns[0].Ops))
	for _, op := range bigHist.Txns[0].Ops {
		keys = append(keys, op.Key)
	}
	// Feed in commit order, as a live stream delivers.
	order := make([]int, 0, len(bigHist.Txns)-1)
	for j := 1; j < len(bigHist.Txns); j++ {
		order = append(order, j)
	}
	sort.Slice(order, func(a, c int) bool {
		return bigHist.Txns[order[a]].Finish < bigHist.Txns[order[c]].Finish
	})
	b.ResetTimer()
	for i := 0; i < b.N; {
		inc := core.NewIncremental(core.SER)
		inc.InitTxn(keys...)
		for _, j := range order {
			if vio := inc.Add(bigHist.Txns[j]); vio != nil {
				b.Fatal("valid stream rejected")
			}
			if i++; i >= b.N {
				break
			}
		}
	}
}
