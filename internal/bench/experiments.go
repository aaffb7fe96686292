package bench

import (
	"context"
	"fmt"

	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/elle"
	"mtc/internal/faults"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/porcupine"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

// All returns every experiment, ordered as in the paper.
func All() []Experiment {
	return []Experiment{
		table1(),
		fig7or8("fig7a", "MTC-SER vs Cobra: object-access distributions", core.SER, axisDist),
		fig7or8("fig7b", "MTC-SER vs Cobra: #objects sweep", core.SER, axisObjects),
		fig7or8("fig7c", "MTC-SER vs Cobra: #sessions sweep", core.SER, axisSessions),
		fig7or8("fig7d", "MTC-SER vs Cobra: #txns sweep", core.SER, axisTxns),
		fig7or8("fig8a", "MTC-SI vs PolySI: object-access distributions", core.SI, axisDist),
		fig7or8("fig8b", "MTC-SI vs PolySI: #objects sweep", core.SI, axisObjects),
		fig7or8("fig8c", "MTC-SI vs PolySI: #sessions sweep", core.SI, axisSessions),
		fig7or8("fig8d", "MTC-SI vs PolySI: #txns sweep", core.SI, axisTxns),
		fig9a(), fig9b(),
		fig10or17("fig10a", "End-to-end SER: time vs #txns", core.SER, axisTxns, false),
		fig10or17("fig10b", "End-to-end SER: time vs #ops/txn", core.SER, axisOps, false),
		fig10or17("fig10c", "End-to-end SER: time vs #objects", core.SER, axisObjects, false),
		fig10or17("fig10d", "End-to-end SER: memory vs #txns", core.SER, axisTxns, true),
		fig10or17("fig10e", "End-to-end SER: memory vs #ops/txn", core.SER, axisOps, true),
		fig10or17("fig10f", "End-to-end SER: memory vs #objects", core.SER, axisObjects, true),
		fig11a(), fig11b(),
		incrementalExp(), detectionExp(),
		table2(),
		fig13("fig13a", core.SER), fig13("fig13b", core.SI),
		fig14("fig14a", core.SER), fig14("fig14b", core.SI),
		fig10or17("fig17a", "End-to-end SI: time vs #txns", core.SI, axisTxns, false),
		fig10or17("fig17b", "End-to-end SI: time vs #ops/txn", core.SI, axisOps, false),
		fig10or17("fig17c", "End-to-end SI: time vs #objects", core.SI, axisObjects, false),
		fig10or17("fig17d", "End-to-end SI: memory vs #txns", core.SI, axisTxns, true),
		fig10or17("fig17e", "End-to-end SI: memory vs #ops/txn", core.SI, axisOps, true),
		fig10or17("fig17f", "End-to-end SI: memory vs #objects", core.SI, axisObjects, true),
	}
}

// axis identifies the swept workload parameter of a sub-figure.
type axis int

const (
	axisDist axis = iota
	axisObjects
	axisSessions
	axisTxns
	axisOps
)

// genMTHistory runs an MT workload on a fresh store at the level's mode
// and returns the resulting history.
func genMTHistory(lvl core.Level, sessions, txnsPerSession, objects int, dist workload.DistKind, seed int64) *history.History {
	mode := kv.ModeSerializable
	if lvl == core.SI {
		mode = kv.ModeSI
	}
	s := kv.NewStore(mode)
	w := workload.GenerateMT(workload.MTConfig{
		Sessions: sessions, Txns: txnsPerSession, Objects: objects,
		Dist: dist, Seed: seed, ReadOnlyFrac: 0.2,
	})
	return runner.Run(s, w, runner.Config{Retries: 8, DropAborted: true}).H
}

// table1 replays the anomaly fixtures (Table I plus the lattice extras)
// through all three strong checkers, reporting a 1 where the checker
// (correctly) rejects.
func table1() Experiment {
	return Experiment{
		ID:    "table1",
		Title: "Fig. 5 / Table I: 14 anomalies captured by MTs (1 = violation detected)",
		Run: func(float64) []Row {
			var rows []Row
			for _, f := range history.Fixtures() {
				for lvl, want := range map[core.Level]bool{
					core.SSER: f.ViolatesSSER, core.SER: f.ViolatesSER, core.SI: f.ViolatesSI,
				} {
					got := !check("mtc", f.H, lvl).OK
					v := 0.0
					if got {
						v = 1.0
					}
					if got != want {
						v = -1 // would indicate a checker bug; tests forbid it
					}
					rows = append(rows, Row{Series: string(lvl), X: f.Name, Value: v, Unit: "count"})
				}
			}
			return rows
		},
	}
}

// fig7or8 compares verification time of the MTC checker against the
// corresponding baseline (Cobra for SER, PolySI for SI) on MT histories,
// sweeping one workload axis (Figures 7 and 8).
func fig7or8(id, title string, lvl core.Level, ax axis) Experiment {
	return Experiment{ID: id, Title: title, Run: func(scale float64) []Row {
		type point struct {
			label                       string
			sessions, txnsPerS, objects int
			dist                        workload.DistKind
		}
		base := point{sessions: 10, txnsPerS: scaled(200, scale, 10), objects: 100, dist: workload.Uniform}
		var pts []point
		switch ax {
		case axisDist:
			for _, d := range workload.Distributions() {
				p := base
				p.dist = d
				p.label = string(d)
				pts = append(pts, p)
			}
		case axisObjects:
			for _, o := range []int{10, 100, 1000, 10000} {
				p := base
				p.objects = o
				p.label = fmt.Sprintf("objects=%d", o)
				pts = append(pts, p)
			}
		case axisSessions:
			for _, s := range []int{5, 10, 15, 20, 25} {
				p := base
				p.sessions = s
				p.label = fmt.Sprintf("sessions=%d", s)
				pts = append(pts, p)
			}
		case axisTxns:
			for _, n := range []int{100, 1000, 3000, 10000} {
				p := base
				p.txnsPerS = scaled(n, scale, 5) / base.sessions
				if p.txnsPerS == 0 {
					p.txnsPerS = 1
				}
				p.label = fmt.Sprintf("txns=%d", n)
				pts = append(pts, p)
			}
		}
		mtcName, baseName := "MTC-SER", "Cobra"
		if lvl == core.SI {
			mtcName, baseName = "MTC-SI", "PolySI"
		}
		var rows []Row
		for i, p := range pts {
			h := genMTHistory(lvl, p.sessions, p.txnsPerS, p.objects, p.dist, int64(i+1))
			// Dispatch through the registry's context-aware path — the same
			// entry point the v1 job API serves — so the comparison covers
			// the adapters production traffic exercises.
			ctx := context.Background()
			tMTC, _ := measure(func() {
				rep, err := checker.Run(ctx, "mtc", h, checker.Options{Level: lvl})
				if err != nil || !rep.OK {
					panic("bench: valid history rejected by MTC")
				}
			})
			baseline := "cobra"
			if lvl == core.SI {
				baseline = "polysi"
			}
			tBase, _ := measure(func() {
				rep, err := checker.Run(ctx, baseline, h, checker.Options{Level: lvl})
				if err != nil || !rep.OK {
					panic("bench: valid history rejected by baseline")
				}
			})
			rows = append(rows,
				Row{Series: mtcName + " verify", X: p.label, Value: tMTC, Unit: "s"},
				Row{Series: baseName + " verify", X: p.label, Value: tBase, Unit: "s"},
			)
		}
		return rows
	}}
}

// fig9a sweeps the fraction of concurrent sessions on synthetic LWT
// histories, comparing MTC-SSER (VLLWT) against Porcupine.
func fig9a() Experiment {
	return Experiment{
		ID:    "fig9a",
		Title: "MTC-SSER vs Porcupine: concurrent sessions sweep (LWT histories)",
		Run: func(scale float64) []Row {
			var rows []Row
			for i, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
				ops := workload.GenerateLWT(workload.LWTConfig{
					Sessions: 16, TxnsPerSession: scaled(120, scale, 6),
					ConcurrentFrac: frac, Keys: 1, Seed: int64(i + 1),
				})
				label := fmt.Sprintf("concurrent=%d%%", int(frac*100))
				tMTC, _ := measure(func() {
					if !core.VLLWT(ops).OK {
						panic("bench: valid LWT history rejected by VLLWT")
					}
				})
				tPor, _ := measure(func() {
					if !porcupine.Check(ops) {
						panic("bench: valid LWT history rejected by Porcupine")
					}
				})
				rows = append(rows,
					Row{Series: "MTC-SSER verify", X: label, Value: tMTC, Unit: "s"},
					Row{Series: "Porcupine verify", X: label, Value: tPor, Unit: "s"},
				)
			}
			return rows
		},
	}
}

// fig9b sweeps transactions per session at full concurrency.
func fig9b() Experiment {
	return Experiment{
		ID:    "fig9b",
		Title: "MTC-SSER vs Porcupine: #txns/session sweep (LWT histories)",
		Run: func(scale float64) []Row {
			var rows []Row
			for i, tps := range []int{2, 4, 6, 8, 10} {
				ops := workload.GenerateLWT(workload.LWTConfig{
					Sessions: scaled(60, scale, 4), TxnsPerSession: tps,
					ConcurrentFrac: 1, Keys: 1, Seed: int64(i + 1),
				})
				label := fmt.Sprintf("txns/session=%d", tps)
				tMTC, _ := measure(func() { core.VLLWT(ops) })
				tPor, _ := measure(func() { porcupine.Check(ops) })
				rows = append(rows,
					Row{Series: "MTC-SSER verify", X: label, Value: tMTC, Unit: "s"},
					Row{Series: "Porcupine verify", X: label, Value: tPor, Unit: "s"},
				)
			}
			return rows
		},
	}
}

// fig10or17 measures the full end-to-end pipeline — history generation on
// the store plus verification — for MTC with MT workloads against the
// baseline with GT workloads (Cobra for SER in Figure 10, PolySI for SI in
// Figure 17), reporting either time (decomposed by stage) or memory.
func fig10or17(id, title string, lvl core.Level, ax axis, memory bool) Experiment {
	return Experiment{ID: id, Title: title, Run: func(scale float64) []Row {
		type point struct {
			label         string
			txns, ops, ob int
		}
		base := point{txns: scaled(500, scale, 20), ops: 12, ob: 200}
		txnSweep := []int{100, 500, 1000, 2000}
		if lvl == core.SI {
			// PolySI's SI-composition solving on blind-write GT workloads
			// is dramatically more expensive than Cobra's plain
			// acyclicity (that asymmetry is the figure's result); smaller
			// default sizes keep the sweep minutes, not hours. Raise
			// -scale to push further out.
			base.txns = scaled(300, scale, 20)
			txnSweep = []int{100, 300, 600, 1000}
		}
		var pts []point
		switch ax {
		case axisTxns:
			for _, n := range txnSweep {
				p := base
				p.txns = scaled(n, scale, 10)
				p.label = fmt.Sprintf("txns=%d", n)
				pts = append(pts, p)
			}
		case axisOps:
			for _, o := range []int{4, 12, 16, 20, 24} {
				p := base
				p.ops = o
				p.label = fmt.Sprintf("ops/txn=%d", o)
				pts = append(pts, p)
			}
		case axisObjects:
			for _, o := range []int{100, 200, 500, 1000} {
				p := base
				p.ob = o
				p.label = fmt.Sprintf("objects=%d", o)
				pts = append(pts, p)
			}
		}
		sessions := 10
		mode := kv.ModeSerializable
		mtcName, baseName := "MTC", "Cobra"
		if lvl == core.SI {
			mode = kv.ModeSI
			mtcName, baseName = "MTC", "PolySI"
		}
		var rows []Row
		for i, p := range pts {
			seed := int64(i + 1)
			// MTC pipeline: MT workload.
			var mtcH *history.History
			tGenM, mGenM := measure(func() {
				mtcH = genMTHistory(lvl, sessions, p.txns/sessions+1, p.ob, workload.Uniform, seed)
			})
			tVerM, mVerM := measure(func() { check("mtc", mtcH, lvl) })
			// Baseline pipeline: GT workload.
			var gtH *history.History
			tGenG, mGenG := measure(func() {
				s := kv.NewStore(mode)
				w := workload.GenerateGT(workload.GTConfig{
					Sessions: sessions, Txns: p.txns/sessions + 1, Objects: p.ob,
					OpsPerTxn: p.ops, Seed: seed,
				})
				gtH = runner.Run(s, w, runner.Config{Retries: 8, DropAborted: true}).H
			})
			baseline := "cobra"
			if lvl == core.SI {
				baseline = "polysi"
			}
			tVerG, mVerG := measure(func() {
				_, _ = checker.Run(context.Background(), baseline, gtH, checker.Options{Level: lvl})
			})
			if memory {
				rows = append(rows,
					Row{Series: mtcName + " memory", X: p.label, Value: mGenM + mVerM, Unit: "MB"},
					Row{Series: baseName + " memory", X: p.label, Value: mGenG + mVerG, Unit: "MB"},
				)
			} else {
				rows = append(rows,
					Row{Series: mtcName + " gen", X: p.label, Value: tGenM, Unit: "s"},
					Row{Series: mtcName + " verify", X: p.label, Value: tVerM, Unit: "s"},
					Row{Series: baseName + " gen", X: p.label, Value: tGenG, Unit: "s"},
					Row{Series: baseName + " verify", X: p.label, Value: tVerG, Unit: "s"},
				)
			}
		}
		return rows
	}}
}

// fig11a measures abort rates of GT vs MT workloads under SER and SI as
// sessions increase.
func fig11a() Experiment {
	return Experiment{
		ID:    "fig11a",
		Title: "Abort rates: GT vs MT workloads vs #sessions",
		Run: func(scale float64) []Row {
			var rows []Row
			txns := scaled(60, scale, 10)
			for _, sessions := range []int{5, 10, 15, 20, 25} {
				label := fmt.Sprintf("sessions=%d", sessions)
				for _, cfg := range []struct {
					series string
					mode   kv.Mode
					gt     bool
				}{
					{"GT-SER", kv.ModeSerializable, true},
					{"GT-SI", kv.ModeSI, true},
					{"MT-SER", kv.ModeSerializable, false},
					{"MT-SI", kv.ModeSI, false},
				} {
					s := kv.NewStore(cfg.mode)
					var w *workload.Workload
					if cfg.gt {
						w = workload.GenerateGT(workload.GTConfig{
							Sessions: sessions, Txns: txns, Objects: 40, OpsPerTxn: 20, Seed: 7,
						})
					} else {
						w = workload.GenerateMT(workload.MTConfig{
							Sessions: sessions, Txns: txns, Objects: 40, Dist: workload.Uniform, Seed: 7,
						})
					}
					res := runner.Run(s, w, runner.Config{Retries: 0})
					rows = append(rows, Row{Series: cfg.series, X: label, Value: res.AbortRate() * 100, Unit: "%"})
				}
			}
			return rows
		},
	}
}

// fig11b measures abort rates against skewness (#txns / #objects).
func fig11b() Experiment {
	return Experiment{
		ID:    "fig11b",
		Title: "Abort rates: GT vs MT workloads vs skewness (#txns/#objects)",
		Run: func(scale float64) []Row {
			var rows []Row
			sessions := 10
			txns := scaled(40, scale, 10)
			total := sessions * txns
			for _, skew := range []int{1, 5, 10, 15, 20, 25} {
				objects := total / skew
				if objects < 1 {
					objects = 1
				}
				label := fmt.Sprintf("skew=%d", skew)
				for _, cfg := range []struct {
					series string
					mode   kv.Mode
					gt     bool
				}{
					{"GT-SER", kv.ModeSerializable, true},
					{"GT-SI", kv.ModeSI, true},
					{"MT-SER", kv.ModeSerializable, false},
					{"MT-SI", kv.ModeSI, false},
				} {
					s := kv.NewStore(cfg.mode)
					var w *workload.Workload
					if cfg.gt {
						w = workload.GenerateGT(workload.GTConfig{
							Sessions: sessions, Txns: txns, Objects: objects, OpsPerTxn: 20, Seed: 7,
						})
					} else {
						w = workload.GenerateMT(workload.MTConfig{
							Sessions: sessions, Txns: txns, Objects: objects, Dist: workload.Uniform, Seed: 7,
						})
					}
					res := runner.Run(s, w, runner.Config{Retries: 0})
					rows = append(rows, Row{Series: cfg.series, X: label, Value: res.AbortRate() * 100, Unit: "%"})
				}
			}
			return rows
		},
	}
}

// table2 rediscovers the six production bugs, reporting counterexample
// position (transaction count until first detection) and stage times.
func table2() Experiment {
	return Experiment{
		ID:    "table2",
		Title: "Table II: rediscovered isolation bugs (fault-injected substrate)",
		Run: func(scale float64) []Row {
			var rows []Row
			for _, b := range faults.Bugs() {
				found := false
				var genT, verT, cePos float64
				for seed := int64(1); seed <= 10 && !found; seed++ {
					if b.LWT {
						s := b.NewStore(seed)
						var ops []core.LWT
						g, _ := measure(func() {
							res := runner.RunLWT(s, runner.LWTConfig{
								Sessions: 8, OpsPerSession: scaled(60, scale, 10), Keys: 2, Seed: seed,
							})
							ops = res.Ops
						})
						v, _ := measure(func() {
							if r := core.VLLWT(ops); !r.OK {
								found = true
							}
						})
						genT, verT, cePos = g, v, float64(len(ops))
						continue
					}
					s := b.NewStore(seed)
					w := workload.GenerateMT(workload.MTConfig{
						Sessions: 8, Txns: scaled(120, scale, 20), Objects: 3,
						Dist: workload.Exponential, Seed: seed, ReadOnlyFrac: 0.3,
					})
					var h *history.History
					g, _ := measure(func() {
						h = runner.Run(s, w, runner.Config{Retries: 4}).H
					})
					var r core.Result
					// Straight to the pipeline: the CE position needs the
					// structured divergence witness a Report only renders.
					v, _ := measure(func() {
						r, _ = core.CheckCtx(context.Background(), history.NewIndex(h), b.Claimed)
					})
					genT, verT = g, v
					if !r.OK {
						found = true
						cePos = float64(cePosition(r))
					}
				}
				detected := 0.0
				if found {
					detected = 1.0
				}
				rows = append(rows,
					Row{Series: "detected", X: b.Name, Value: detected, Unit: "count"},
					Row{Series: "CE position", X: b.Name, Value: cePos, Unit: "txn"},
					Row{Series: "hist gen", X: b.Name, Value: genT, Unit: "s"},
					Row{Series: "hist verify", X: b.Name, Value: verT, Unit: "s"},
				)
			}
			return rows
		},
	}
}

// check runs a registered engine on an experiment input. The inputs are
// always checkable, so an error is a harness bug.
func check(engine string, h *history.History, lvl core.Level) checker.Report {
	rep, err := checker.Run(context.Background(), engine, h, checker.Options{Level: lvl})
	if err != nil {
		panic(fmt.Sprintf("bench: %s at %s: %v", engine, lvl, err))
	}
	return rep
}

// cePosition extracts the smallest transaction ID involved in the
// counterexample, mirroring Table II's "CE position".
func cePosition(r core.Result) int {
	min := r.NumTxns
	for _, e := range r.Cycle {
		if e.From < min {
			min = e.From
		}
	}
	if r.Divergence != nil && r.Divergence.Reader1 < min {
		min = r.Divergence.Reader1
	}
	for _, a := range r.Anomalies {
		if a.Txn < min {
			min = a.Txn
		}
	}
	return min
}

// fig13 counts detected bugs across trials: MTC with MTs (len<=4) against
// Elle with list-append and rw-register workloads at varying max
// transaction lengths, on the faulty substrate standing in for PostgreSQL
// (SER, write skew) or MongoDB (SI, dirty aborts).
func fig13(id string, lvl core.Level) Experiment {
	title := "Bugs found: MTC vs Elle on PostgreSQL-like store (SER)"
	if lvl == core.SI {
		title = "Bugs found: MTC vs Elle on MongoDB-like store (SI)"
	}
	return Experiment{ID: id, Title: title, Run: func(scale float64) []Row {
		trials := scaled(10, scale, 3)
		var rows []Row
		for _, maxLen := range []int{2, 4, 8, 12} {
			label := fmt.Sprintf("maxlen=%d", maxLen)
			appendHits, wrHits := 0, 0
			for trial := 0; trial < trials; trial++ {
				seed := int64(trial*31 + maxLen)
				// elle-append
				s := bugStore(lvl, seed)
				wa := workload.GenerateListAppend(workload.ListAppendConfig{
					Sessions: 8, Txns: scaled(60, scale, 10), Objects: 10,
					MaxTxnLen: maxLen, Dist: workload.Exponential, Seed: seed,
				})
				ha, _ := runner.RunListAppend(s, wa, runner.Config{Retries: 4})
				if !elle.CheckListAppend(ha, elle.Level(lvl)).OK {
					appendHits++
				}
				// elle-wr
				s = bugStore(lvl, seed+1000)
				ww := workload.GenerateRWRegister(workload.RWRegisterConfig{
					Sessions: 8, Txns: scaled(60, scale, 10), Objects: 10,
					MaxTxnLen: maxLen, Dist: workload.Exponential, Seed: seed,
				})
				hw := runner.Run(s, ww, runner.Config{Retries: 4}).H
				if !elle.CheckRWRegister(hw, elle.Level(lvl)).OK {
					wrHits++
				}
			}
			rows = append(rows,
				Row{Series: "elle-append", X: label, Value: float64(appendHits), Unit: "count"},
				Row{Series: "elle-wr", X: label, Value: float64(wrHits), Unit: "count"},
			)
		}
		// MTC: fixed transaction length <= 4.
		mtcHits := 0
		for trial := 0; trial < trials; trial++ {
			seed := int64(trial*17 + 3)
			s := bugStore(lvl, seed)
			w := workload.GenerateMT(workload.MTConfig{
				Sessions: 8, Txns: scaled(60, scale, 10), Objects: 10,
				Dist: workload.Exponential, Seed: seed, ReadOnlyFrac: 0.25,
			})
			h := runner.Run(s, w, runner.Config{Retries: 4}).H
			if !check("mtc", h, lvl).OK {
				mtcHits++
			}
		}
		rows = append(rows, Row{Series: "mtc-mini", X: "maxlen=4", Value: float64(mtcHits), Unit: "count"})
		return rows
	}}
}

// bugStore builds the faulty store for fig13/fig14: the PostgreSQL-like
// write-skew bug for SER, the MongoDB-like dirty-abort bug for SI.
func bugStore(lvl core.Level, seed int64) *kv.Store {
	if lvl == core.SI {
		return kv.NewFaultyStore(kv.ModeSI, kv.Faults{DirtyAbort: 0.05, Seed: seed})
	}
	return kv.NewFaultyStore(kv.ModeSerializable, kv.Faults{WriteSkew: 0.3, Seed: seed})
}

// fig14 measures end-to-end time (generation and verification) for the
// fig13 configurations.
func fig14(id string, lvl core.Level) Experiment {
	title := "End-to-end time: MTC vs Elle on PostgreSQL-like store (SER)"
	if lvl == core.SI {
		title = "End-to-end time: MTC vs Elle on MongoDB-like store (SI)"
	}
	return Experiment{ID: id, Title: title, Run: func(scale float64) []Row {
		var rows []Row
		txns := scaled(80, scale, 10)
		for _, maxLen := range []int{2, 4, 8, 12} {
			label := fmt.Sprintf("maxlen=%d", maxLen)
			seed := int64(maxLen)
			s := bugStore(lvl, seed)
			var ha *elle.History
			g1, _ := measure(func() {
				wa := workload.GenerateListAppend(workload.ListAppendConfig{
					Sessions: 8, Txns: txns, Objects: 10, MaxTxnLen: maxLen,
					Dist: workload.Exponential, Seed: seed,
				})
				ha, _ = runner.RunListAppend(s, wa, runner.Config{Retries: 4})
			})
			v1, _ := measure(func() { elle.CheckListAppend(ha, elle.Level(lvl)) })
			s = bugStore(lvl, seed+1)
			var hw *history.History
			g2, _ := measure(func() {
				ww := workload.GenerateRWRegister(workload.RWRegisterConfig{
					Sessions: 8, Txns: txns, Objects: 10, MaxTxnLen: maxLen,
					Dist: workload.Exponential, Seed: seed,
				})
				hw = runner.Run(s, ww, runner.Config{Retries: 4}).H
			})
			v2, _ := measure(func() { elle.CheckRWRegister(hw, elle.Level(lvl)) })
			rows = append(rows,
				Row{Series: "elle-append gen", X: label, Value: g1, Unit: "s"},
				Row{Series: "elle-append verify", X: label, Value: v1, Unit: "s"},
				Row{Series: "elle-wr gen", X: label, Value: g2, Unit: "s"},
				Row{Series: "elle-wr verify", X: label, Value: v2, Unit: "s"},
			)
		}
		// MTC at its fixed length 4.
		seed := int64(99)
		s := bugStore(lvl, seed)
		var h *history.History
		g, _ := measure(func() {
			w := workload.GenerateMT(workload.MTConfig{
				Sessions: 8, Txns: txns, Objects: 10,
				Dist: workload.Exponential, Seed: seed, ReadOnlyFrac: 0.25,
			})
			h = runner.Run(s, w, runner.Config{Retries: 4}).H
		})
		v, _ := measure(func() { check("mtc", h, lvl) })
		rows = append(rows,
			Row{Series: "mtc gen", X: "maxlen=4", Value: g, Unit: "s"},
			Row{Series: "mtc verify", X: "maxlen=4", Value: v, Unit: "s"},
		)
		return rows
	}}
}
