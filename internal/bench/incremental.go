package bench

import (
	"fmt"

	"mtc/internal/core"
	"mtc/internal/faults"
	"mtc/internal/history"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

// incrementalExp compares the batch MTC checkers against the online
// incremental engine on the same histories: total verification time at
// SER and SI across history sizes. The two decide the same predicate, so
// the gap is pure bookkeeping overhead of the online topological order —
// the price of having a verdict at every prefix.
func incrementalExp() Experiment {
	return Experiment{
		ID:    "incr",
		Title: "Batch vs incremental checking: time vs #txns (same verdicts)",
		Run: func(scale float64) []Row {
			var rows []Row
			for _, txns := range []int{2000, 5000, 10000, 20000} {
				n := scaled(txns, scale, 200)
				h := genMTHistory(core.SER, 10, n/10, n/20, workload.Zipfian, 42)
				x := fmt.Sprintf("%d", n)
				for _, lvl := range []core.Level{core.SER, core.SI} {
					lvl := lvl
					sec, _ := measure(func() {
						if r := check("mtc", h, lvl); !r.OK {
							panic("bench: clean history rejected")
						}
					})
					rows = append(rows, Row{Series: "batch-" + string(lvl), X: x, Value: sec, Unit: "s"})
					sec, _ = measure(func() {
						if r := check("mtc-incremental", h, lvl); !r.OK {
							panic("bench: clean history rejected incrementally")
						}
					})
					rows = append(rows, Row{Series: "incremental-" + string(lvl), X: x, Value: sec, Unit: "s"})
				}
			}
			return rows
		},
	}
}

// detectionExp measures the online engine's detection latency on buggy
// histories: how many transactions are ingested before the verdict
// flips, against the full history length the batch checker must wait
// for. Lower is better; the batch series is the history length by
// definition.
func detectionExp() Experiment {
	return Experiment{
		ID:    "incrdet",
		Title: "Violation detection position: incremental vs batch (txns ingested)",
		Run: func(scale float64) []Row {
			var rows []Row
			for _, b := range faults.Bugs() {
				if b.LWT || b.Claimed == core.SSER {
					continue
				}
				for seed := int64(1); seed <= 6; seed++ {
					n := scaled(2000, scale, 100)
					w := workload.GenerateMT(workload.MTConfig{
						Sessions: 8, Txns: n / 8, Objects: 3,
						Dist: workload.Exponential, Seed: seed, ReadOnlyFrac: 0.2,
					})
					h := runBugHistory(b, w, seed)
					if check("mtc", h, b.Claimed).OK {
						continue
					}
					inc := core.NewIncremental(b.Claimed)
					at := len(h.Txns)
					for i := range h.Txns {
						var vio *core.Result
						if h.HasInit && i == 0 {
							vio = inc.InitTxn(historyKeys(h)...)
						} else {
							vio = inc.Add(h.Txns[i])
						}
						if vio != nil {
							at = i + 1
							break
						}
					}
					rows = append(rows,
						Row{Series: "incremental", X: b.Name, Value: float64(at), Unit: "txns"},
						Row{Series: "batch (full history)", X: b.Name, Value: float64(len(h.Txns)), Unit: "txns"},
					)
					break
				}
			}
			return rows
		},
	}
}

// runBugHistory executes w against the bug's store.
func runBugHistory(b faults.Bug, w *workload.Workload, seed int64) *history.History {
	return runner.Run(b.NewStore(seed), w, runner.Config{Retries: 4}).H
}

// historyKeys lists the keys of the initial transaction.
func historyKeys(h *history.History) []history.Key {
	var keys []history.Key
	for _, op := range h.Txns[0].Ops {
		keys = append(keys, op.Key)
	}
	return keys
}
