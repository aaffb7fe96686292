package main

import (
	"testing"

	"mtc/internal/faults"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

// corpusShape sizes one suite's draw from the shared differential
// corpus.
type corpusShape struct {
	seeds    int64 // seeds 1..seeds
	sessions int
	objects  int  // keys of the clean MT plan
	tenants  bool // split every plan into int(seed%4)+1 key-disjoint tenants
	bugs     int  // fault-injected histories per seed
}

// differentialCorpus generates the randomized corpus the root
// differential suites replay and hands every history to check with a
// tag naming its origin. Per seed: a clean MT history from each strong
// store mode; a general-transaction history, whose blind writes leave
// undetermined writer pairs (real polygraph constraints, incomparable
// versions); and shape.bugs fault-injected MT histories cycling through
// the Table-II catalogue on few, hot objects, so violating verdicts —
// anomalies, cycles, divergence — are compared too. It returns the
// number of histories generated.
func differentialCorpus(t *testing.T, shape corpusShape, check func(h *history.History, tag string)) int {
	t.Helper()
	var bugs []faults.Bug
	for _, b := range faults.Bugs() {
		if !b.LWT {
			bugs = append(bugs, b)
		}
	}
	histories := 0
	run := func(s *kv.Store, w *workload.Workload, tag string) {
		check(runner.Run(s, w, runner.Config{Retries: 2}).H, tag)
		histories++
	}
	for seed := int64(1); seed <= shape.seeds; seed++ {
		tenants := 0
		if shape.tenants {
			tenants = int(seed%4) + 1
		}
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: shape.sessions, Txns: 6, Objects: shape.objects,
			Dist: workload.Uniform, Seed: seed, ReadOnlyFrac: 0.25,
			Tenants: tenants,
		})
		for _, mode := range []kv.Mode{kv.ModeSerializable, kv.ModeSI} {
			run(kv.NewStore(mode), w, mode.String())
		}
		wg := workload.GenerateGT(workload.GTConfig{
			Sessions: shape.sessions, Txns: 6, Objects: 3, OpsPerTxn: 3, Seed: seed,
			Tenants: tenants,
		})
		run(kv.NewStore(kv.ModeSerializable), wg, "gt")
		wf := workload.GenerateMT(workload.MTConfig{
			Sessions: shape.sessions, Txns: 8, Objects: 2,
			Dist: workload.Exponential, Seed: seed, ReadOnlyFrac: 0.25,
			Tenants: tenants,
		})
		for i := 0; i < shape.bugs; i++ {
			b := bugs[(int(seed)+i)%len(bugs)]
			run(b.NewStore(seed), wf, b.Name)
		}
	}
	return histories
}
