package checker

import (
	"context"
	"fmt"
	"time"

	"mtc/internal/core"
	"mtc/internal/elle"
	"mtc/internal/graph"
	"mtc/internal/history"
	"mtc/internal/levels"
	"mtc/internal/polygraph"
	"mtc/internal/porcupine"
)

// engine is one row of the registry table and the only Checker
// implementation: a name, the levels it serves (default first) and the
// adapter that runs it. Check stamps the row's name on the Report, so
// one adapter can serve several rows.
type engine struct {
	name   string
	levels []Level
	check  func(ctx context.Context, h *history.History, opts Options) (Report, error)
}

func (e engine) Name() string    { return e.name }
func (e engine) Levels() []Level { return e.levels }

func (e engine) Check(ctx context.Context, h *history.History, opts Options) (Report, error) {
	rep, err := e.check(ctx, h, opts)
	rep.Checker = e.name
	return rep, err
}

func init() {
	// The whole lattice, the default level (SI) first.
	allSix := []Level{core.SI, core.SER, core.SSER, core.CAUSAL, core.RA, core.RC}
	for _, e := range []engine{
		// The paper's batch MTC algorithms (Section IV) at the strong
		// levels and the weak lattice rungs over the same derivation.
		{"mtc", allSix, checkMTC},
		{"mtc-incremental", []Level{core.SI, core.SER}, checkIncremental},
		// The Cobra (SER) and PolySI (SI) baselines: one polygraph
		// pipeline, the level picks the mode.
		{"cobra", []Level{core.SER}, checkPolygraph},
		{"polysi", []Level{core.SI}, checkPolygraph},
		{"elle", []Level{core.SER, core.SI}, checkElle},
		{"porcupine", []Level{core.SSER}, checkPorcupine},
		{"profile", allSix, checkProfile},
	} {
		Register(e)
	}
}

// millis converts a duration to the PhaseTiming unit.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// since is the Timings of an engine that runs as one phase.
func since(phase string, start time.Time) []PhaseTiming {
	return []PhaseTiming{{Phase: phase, Millis: millis(time.Since(start))}}
}

// ReportFromResult normalises a core.Result into the wire Report shape;
// the adapters, the streaming session endpoints of mtcserve and the
// CLIs' structured output all share it.
func ReportFromResult(name string, r core.Result) Report {
	v := Report{
		Checker: name, Level: r.Level, OK: r.OK,
		Txns: r.NumTxns, Edges: r.NumEdges,
		Anomalies: r.Anomalies, Cycle: r.Cycle,
		CompactedEpochs: r.CompactedEpochs, CompactedTxns: r.CompactedTxns,
	}
	if r.Divergence != nil {
		v.Detail = r.Divergence.String()
	}
	if len(r.Cycle) > 0 {
		v.Detail = graph.FormatCycle(r.Cycle)
	}
	return v
}

// reportFromProfile flattens a lattice profile into the wire Report:
// the requested rung's result becomes the top-level verdict, and the
// profile-specific fields carry every rung and guarantee.
func reportFromProfile(lvl Level, prof *levels.Report) Report {
	rung := prof.Rung(lvl)
	rep := ReportFromResult("", rung.Res)
	rep.Level = lvl
	rep.Txns = prof.NumTxns
	rep.Edges = prof.NumEdges
	rep.StrongestLevel = prof.Strongest
	if rep.Detail == "" && !rung.Res.OK {
		rep.Detail = rung.Witness()
	}
	for _, v := range prof.Rungs {
		rep.Rungs = append(rep.Rungs, RungVerdict{
			Level: v.Level, OK: v.Res.OK, Witness: v.Witness(),
		})
	}
	for _, g := range prof.Guarantees {
		rep.Guarantees = append(rep.Guarantees, GuaranteeVerdict{
			Guarantee: string(g.Guarantee), OK: g.OK, Session: g.Session, Witness: g.Witness,
		})
	}
	return rep
}

// checkMTC serves every level of the lattice through levels.CheckLevel,
// which hands SI, SER and SSER to core.CheckCtx.
func checkMTC(ctx context.Context, h *history.History, opts Options) (Report, error) {
	start := time.Now()
	r, err := levels.CheckLevel(ctx, indexOf(h, opts), opts.Level)
	if err != nil {
		return Report{}, err
	}
	rep := ReportFromResult("", r)
	rep.Timings = since("check", start)
	return rep, nil
}

// checkIncremental replays the history through the online engine; on
// live streams the same engine is driven directly (core.Incremental).
// Options.Window > 0 selects the epoch-windowed replay: bounded memory,
// identical verdicts.
func checkIncremental(ctx context.Context, h *history.History, opts Options) (Report, error) {
	start := time.Now()
	r, err := core.CheckIncrementalWindowedCtx(ctx, h, opts.Level, opts.Window)
	if err != nil {
		return Report{}, err
	}
	rep := ReportFromResult("", r)
	rep.Timings = since("replay", start)
	return rep, nil
}

// checkPolygraph serves the Cobra and PolySI baselines.
func checkPolygraph(ctx context.Context, h *history.History, opts Options) (Report, error) {
	mode := polygraph.SER
	if opts.Level == core.SI {
		mode = polygraph.SI
	}
	rep, err := polygraph.Check(ctx, indexOf(h, opts), mode)
	if err != nil {
		return Report{}, err
	}
	return Report{
		Level: opts.Level, OK: rep.OK,
		Txns: len(h.Txns), Anomalies: rep.Anomalies,
		Detail: fmt.Sprintf("constraints=%d forced=%d residual=%d", rep.Constraints, rep.Forced, rep.Residual),
		Timings: []PhaseTiming{
			{Phase: "build", Millis: millis(rep.BuildTime)},
			{Phase: "prune", Millis: millis(rep.PruneTime)},
			{Phase: "solve", Millis: millis(rep.SolveTime)},
		},
	}, nil
}

// checkElle serves Elle's read-write-register mode.
func checkElle(ctx context.Context, h *history.History, opts Options) (Report, error) {
	start := time.Now()
	rep, err := elle.CheckRWRegisterCtx(ctx, h, elle.Level(opts.Level))
	if err != nil {
		return Report{}, err
	}
	v := Report{
		Level: opts.Level, OK: rep.OK,
		Txns: len(h.Txns), Cycle: rep.Cycle, Detail: rep.Reason,
		Timings: since("check", start),
	}
	if len(rep.Cycle) > 0 {
		v.Detail = graph.FormatCycle(rep.Cycle)
	}
	return v, nil
}

// checkPorcupine serves the Porcupine (WGL) linearizability baseline
// over the lightweight-transaction path: the history must be LWT-shaped —
// every committed transaction a single-key insert (one blind write) or
// compare-and-set (read then write of the read key).
func checkPorcupine(ctx context.Context, h *history.History, opts Options) (Report, error) {
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	convStart := time.Now()
	ops, err := LWTFromHistory(h)
	if err != nil {
		return Report{}, &UnsupportedHistoryError{Checker: "porcupine", Reason: err.Error()}
	}
	convTime := time.Since(convStart)
	solveStart := time.Now()
	ok, err := porcupine.CheckCtx(ctx, ops)
	if err != nil {
		return Report{}, err
	}
	v := Report{
		Level: core.SSER, OK: ok, Txns: len(h.Txns),
		Timings: []PhaseTiming{
			{Phase: "convert", Millis: millis(convTime)},
			{Phase: "solve", Millis: millis(time.Since(solveStart))},
		},
	}
	if !ok {
		v.Detail = "history is not linearizable (WGL search exhausted)"
	}
	return v, nil
}

// checkProfile evaluates the whole lattice plus the session guarantees
// in one pass (levels.Profile). The top-level OK/Cycle fields reflect
// the rung at opts.Level — so `profile` at any level is a drop-in
// replacement for `mtc`, which the differential suite exploits — while
// StrongestLevel, Rungs and Guarantees carry the full profile.
func checkProfile(ctx context.Context, h *history.History, opts Options) (Report, error) {
	start := time.Now()
	prof, err := levels.Profile(ctx, indexOf(h, opts))
	if err != nil {
		return Report{}, err
	}
	rep := reportFromProfile(opts.Level, prof)
	rep.Timings = since("profile", start)
	return rep, nil
}

// LWTFromHistory converts an LWT-shaped history into the operation list
// the Porcupine and VLLWT checkers consume. The initial transaction, when
// present, becomes one insert per key; every other committed transaction
// must write exactly one key once, either blindly (insert) or after
// reading that same key (compare-and-set). Aborted transactions are
// dropped — a failed CAS is equivalent to a read and never joins a write
// chain.
func LWTFromHistory(h *history.History) ([]core.LWT, error) {
	var ops []core.LWT
	for i := range h.Txns {
		t := &h.Txns[i]
		if !t.Committed {
			continue
		}
		if h.HasInit && i == 0 {
			for _, op := range t.Ops {
				ops = append(ops, core.LWT{
					ID: len(ops), Key: op.Key, Kind: core.LWTInsert, Write: op.Value,
					Start: t.Start, Finish: t.Finish,
				})
			}
			continue
		}
		var writes, reads []history.Op
		for _, op := range t.Ops {
			if op.Kind == history.OpWrite {
				writes = append(writes, op)
			} else {
				reads = append(reads, op)
			}
		}
		if len(writes) != 1 {
			return nil, fmt.Errorf("txn %d is not LWT-shaped: %d writes (want exactly 1)", i, len(writes))
		}
		w := writes[0]
		o := core.LWT{ID: len(ops), Key: w.Key, Write: w.Value, Start: t.Start, Finish: t.Finish}
		switch {
		case len(reads) == 0:
			o.Kind = core.LWTInsert
		case len(reads) == 1 && reads[0].Key == w.Key:
			o.Kind = core.LWTRW
			o.Read = reads[0].Value
		default:
			return nil, fmt.Errorf("txn %d is not LWT-shaped: reads must be a single read of the written key", i)
		}
		ops = append(ops, o)
	}
	return ops, nil
}
