// bench_test.go hosts one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablation benches for the design choices
// DESIGN.md calls out (inversion pass vs dense real-time edges, pruning vs raw
// solving, and the exponential cost of dropping unique values). Run:
//
//	go test -bench=. -benchmem
//
// The full parameter sweeps live in internal/bench (cmd/mtc-bench); these
// benchmarks measure the hot paths at one representative point each so the
// suite completes quickly and -benchmem reports allocation costs.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mtc/internal/bench"
	"mtc/internal/core"
	"mtc/internal/elle"
	"mtc/internal/faults"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/npc"
	"mtc/internal/polygraph"
	"mtc/internal/porcupine"
	"mtc/internal/runner"
	"mtc/internal/sat"
	"mtc/internal/workload"
)

// histories are generated once and shared across benchmarks.
var (
	histOnce  sync.Once
	serHist   *history.History // 3000-txn MT history from a serializable store (zipf)
	siHist    *history.History // 3000-txn MT history from an SI store (zipf)
	lwtOps    []core.LWT       // 2000-op fully concurrent LWT history
	laHist    *elle.History    // list-append history
	timedHist *history.History // for SSER benches
)

func setup() {
	histOnce.Do(func() {
		mk := func(mode kv.Mode) *history.History {
			s := kv.NewStore(mode)
			w := workload.GenerateMT(workload.MTConfig{
				Sessions: 10, Txns: 300, Objects: 100,
				Dist: workload.Zipfian, Seed: 1, ReadOnlyFrac: 0.2,
			})
			return runner.Run(s, w, runner.Config{Retries: 8, DropAborted: true}).H
		}
		serHist = mk(kv.ModeSerializable)
		siHist = mk(kv.ModeSI)
		timedHist = mk(kv.ModeSerializable)
		lwtOps = workload.GenerateLWT(workload.LWTConfig{
			Sessions: 20, TxnsPerSession: 100, ConcurrentFrac: 1, Keys: 1, Seed: 2,
		})
		s := kv.NewStore(kv.ModeSerializable)
		wla := workload.GenerateListAppend(workload.ListAppendConfig{
			Sessions: 8, Txns: 100, Objects: 10, MaxTxnLen: 6, Seed: 3,
		})
		laHist, _ = runner.RunListAppend(s, wla, runner.Config{Retries: 8, DropAborted: true})
	})
}

// --- Table I -------------------------------------------------------------

func BenchmarkTable1Anomalies(b *testing.B) {
	fixtures := history.Fixtures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fixtures {
			coreCheck(f.H, core.SSER)
			coreCheck(f.H, core.SER)
			coreCheck(f.H, core.SI)
		}
	}
}

// --- Figure 7: SER verification ------------------------------------------

func BenchmarkFig7MTCSERVerify(b *testing.B) {
	setup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !coreCheck(serHist, core.SER).OK {
			b.Fatal("valid history rejected")
		}
	}
}

func BenchmarkFig7CobraVerify(b *testing.B) {
	setup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !polyCheck(serHist, polygraph.SER).OK {
			b.Fatal("valid history rejected")
		}
	}
}

// --- Figure 8: SI verification --------------------------------------------

func BenchmarkFig8MTCSIVerify(b *testing.B) {
	setup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !coreCheck(siHist, core.SI).OK {
			b.Fatal("valid history rejected")
		}
	}
}

func BenchmarkFig8PolySIVerify(b *testing.B) {
	setup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !polyCheck(siHist, polygraph.SI).OK {
			b.Fatal("valid history rejected")
		}
	}
}

// --- Figure 9: SSER / linearizability on LWT histories ---------------------

func BenchmarkFig9MTCSSERVerify(b *testing.B) {
	setup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !core.VLLWT(lwtOps).OK {
			b.Fatal("valid history rejected")
		}
	}
}

func BenchmarkFig9PorcupineVerify(b *testing.B) {
	setup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !porcupine.Check(lwtOps) {
			b.Fatal("valid history rejected")
		}
	}
}

// --- Figure 10: end-to-end SER ---------------------------------------------

func BenchmarkFig10EndToEndMTC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := kv.NewStore(kv.ModeSerializable)
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 10, Txns: 100, Objects: 100, Dist: workload.Uniform, Seed: int64(i),
		})
		h := runner.Run(s, w, runner.Config{Retries: 8, DropAborted: true}).H
		coreCheck(h, core.SER)
	}
}

func BenchmarkFig10EndToEndCobra(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := kv.NewStore(kv.ModeSerializable)
		w := workload.GenerateGT(workload.GTConfig{
			Sessions: 10, Txns: 100, Objects: 100, OpsPerTxn: 12, Seed: int64(i),
		})
		h := runner.Run(s, w, runner.Config{Retries: 8, DropAborted: true}).H
		polyCheck(h, polygraph.SER)
	}
}

// --- Figure 11: abort rates -------------------------------------------------

func BenchmarkFig11MTWorkloadExecution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := kv.NewStore(kv.ModeSerializable)
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 15, Txns: 40, Objects: 40, Dist: workload.Uniform, Seed: int64(i),
		})
		runner.Run(s, w, runner.Config{Retries: 0})
	}
}

func BenchmarkFig11GTWorkloadExecution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := kv.NewStore(kv.ModeSerializable)
		w := workload.GenerateGT(workload.GTConfig{
			Sessions: 15, Txns: 40, Objects: 40, OpsPerTxn: 20, Seed: int64(i),
		})
		runner.Run(s, w, runner.Config{Retries: 0})
	}
}

// --- Table II: bug rediscovery ----------------------------------------------

func BenchmarkTable2BugDetection(b *testing.B) {
	bug := faults.BugByName("mariadb-galera-10.7.3")
	for i := 0; i < b.N; i++ {
		s := bug.NewStore(int64(i + 1))
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 8, Txns: 60, Objects: 3, Dist: workload.Exponential, Seed: int64(i),
		})
		h := runner.Run(s, w, runner.Config{Retries: 4}).H
		coreCheck(h, core.SI)
	}
}

// --- Figures 13/14: MTC vs Elle ----------------------------------------------

func BenchmarkFig13MTCDetectionTrial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := kv.NewFaultyStore(kv.ModeSerializable, kv.Faults{WriteSkew: 0.3, Seed: int64(i + 1)})
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 8, Txns: 60, Objects: 10, Dist: workload.Exponential, Seed: int64(i),
		})
		h := runner.Run(s, w, runner.Config{Retries: 4}).H
		coreCheck(h, core.SER)
	}
}

func BenchmarkFig13ElleAppendDetectionTrial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := kv.NewFaultyStore(kv.ModeSerializable, kv.Faults{WriteSkew: 0.3, Seed: int64(i + 1)})
		w := workload.GenerateListAppend(workload.ListAppendConfig{
			Sessions: 8, Txns: 60, Objects: 10, MaxTxnLen: 8, Seed: int64(i),
		})
		h, _ := runner.RunListAppend(s, w, runner.Config{Retries: 4})
		elle.CheckListAppend(h, elle.SER)
	}
}

func BenchmarkFig14ElleAppendVerify(b *testing.B) {
	setup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !elle.CheckListAppend(laHist, elle.SER).OK {
			b.Fatal("valid history rejected")
		}
	}
}

// --- Figure 17: end-to-end SI -------------------------------------------------

func BenchmarkFig17EndToEndMTCSI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := kv.NewStore(kv.ModeSI)
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 10, Txns: 100, Objects: 100, Dist: workload.Uniform, Seed: int64(i),
		})
		h := runner.Run(s, w, runner.Config{Retries: 8, DropAborted: true}).H
		coreCheck(h, core.SI)
	}
}

func BenchmarkFig17EndToEndPolySI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := kv.NewStore(kv.ModeSI)
		w := workload.GenerateGT(workload.GTConfig{
			Sessions: 10, Txns: 100, Objects: 100, OpsPerTxn: 12, Seed: int64(i),
		})
		h := runner.Run(s, w, runner.Config{Retries: 8, DropAborted: true}).H
		polyCheck(h, polygraph.SI)
	}
}

// --- Ablations -----------------------------------------------------------------

// BenchmarkAblationSSERDenseRT measures the paper's Theta(n^2) SSER
// check — the dependency graph plus every real-time edge, then a cycle
// search — on the reference construction the tests compare against...
func BenchmarkAblationSSERDenseRT(b *testing.B) {
	setup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g, _ := core.BuildDependency(timedHist, true); !g.Acyclic() {
			b.Fatal("valid history rejected")
		}
	}
}

// ...against the rung the checker runs: the cycle search plus one
// real-time inversion pass, no real-time edge materialized.
func BenchmarkAblationSSERInversion(b *testing.B) {
	setup()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := core.BuildDependencyCtx(ctx, history.NewIndex(timedHist))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Rung(ctx, core.SSER); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPruneThenSolve measures Cobra's pipeline with pruning...
func BenchmarkAblationPruneThenSolve(b *testing.B) {
	setup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := polygraph.Build(history.NewIndex(serHist))
		if ok, _ := p.Prune(context.Background(), polygraph.SER, 1); !ok {
			b.Fatal("unexpected prune failure")
		}
		sat.SolveAcyclic(context.Background(), p.N, p.Known, p.Cons)
	}
}

// ...against handing every raw constraint to the solver.
func BenchmarkAblationRawSolve(b *testing.B) {
	// A smaller history keeps the unpruned problem tractable.
	s := kv.NewStore(kv.ModeSerializable)
	w := workload.GenerateMT(workload.MTConfig{
		Sessions: 6, Txns: 40, Objects: 20, Dist: workload.Uniform, Seed: 5,
	})
	h := runner.Run(s, w, runner.Config{Retries: 8, DropAborted: true}).H
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := polygraph.Build(history.NewIndex(h))
		sat.SolveAcyclic(context.Background(), p.N, p.Known, p.Cons)
	}
}

// BenchmarkAblationUniqueValues contrasts the linear MTC check with the
// exponential brute-force search required once unique values are dropped
// (Appendix C).
func BenchmarkAblationUniqueValuesLinear(b *testing.B) {
	h := history.SerialHistory(12, "x", "y")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coreCheck(h, core.SER)
	}
}

func BenchmarkAblationNoUniqueValuesBrute(b *testing.B) {
	h := history.SerialHistory(12, "x", "y")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		npc.SerializableBrute(h)
	}
}

// --- Parallel reachability engine ------------------------------------------------

// pruneHist is a deterministic >= 5000-txn general-transaction history
// whose polygraph carries on the order of 10^5 undetermined writer-pair
// constraints: the workload Cobra's pruning stage is built for.
var (
	pruneOnce sync.Once
	pruneHist *history.History
)

func pruneSetup() *history.History {
	pruneOnce.Do(func() {
		rng := rand.New(rand.NewSource(17))
		// Many short sessions keep the dependency DAG shallow (depth ~
		// txnsPer), so the closure's topological levels are wide enough to
		// shard; total txns stay >= 5000.
		const sessions, txnsPer, keys = 50, 104, 40
		names := make([]history.Key, keys)
		for i := range names {
			names[i] = history.Key(fmt.Sprintf("k%02d", i))
		}
		b := history.NewBuilder(names...)
		latest := map[history.Key]history.Value{}
		next := history.Value(1)
		for s := 0; s < sessions; s++ {
			for i := 0; i < txnsPer; i++ {
				k := names[rng.Intn(keys)]
				if rng.Intn(10) < 6 { // blind write: an undetermined writer
					b.Txn(s, history.W(k, next))
					latest[k] = next
					next++
				} else { // read the latest value: readers fatten the
					// anti-dependency lists each orientation activates
					b.Txn(s, history.R(k, latest[k]))
				}
			}
		}
		pruneHist = b.Build()
	})
	return pruneHist
}

// BenchmarkPrune measures the Cobra pruning fixpoint — reachability
// closure plus constraint checking — serial against the sharded worker
// pool. The verdict and forced count are identical at every parallelism
// (differentially tested); only wall-clock changes.
func BenchmarkPrune(b *testing.B) {
	h := pruneSetup()
	base := polygraph.Build(history.NewIndex(h))
	if len(base.Cons) < 10_000 {
		b.Fatalf("workload too easy: %d constraints", len(base.Cons))
	}
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			b.ReportMetric(float64(len(base.Cons)), "constraints")
			for i := 0; i < b.N; i++ {
				p := &polygraph.Polygraph{
					N:     base.N,
					Known: append([]sat.Edge(nil), base.Known...),
					Cons:  append([]sat.Constraint(nil), base.Cons...),
				}
				if _, err := p.Prune(context.Background(), polygraph.SER, par); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Experiment harness smoke bench ---------------------------------------------

func BenchmarkHarnessFig7aTiny(b *testing.B) {
	e := bench.ByID("fig7a")
	for i := 0; i < b.N; i++ {
		e.Run(0.05)
	}
}
