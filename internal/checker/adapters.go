package checker

import (
	"context"
	"fmt"

	"mtc/internal/core"
	"mtc/internal/elle"
	"mtc/internal/graph"
	"mtc/internal/history"
	"mtc/internal/phase"
	"mtc/internal/polygraph"
	"mtc/internal/porcupine"
)

// engine is one row of the registry table and the only Checker
// implementation: a name, the levels it serves (default first) and the
// adapter that runs it. Check stamps the row's name and the phases the
// adapter and its engine lap (internal/phase) on the Report, so one
// adapter can serve several rows; on an error the Report is zero.
type engine struct {
	name   string
	levels []Level
	check  func(ctx context.Context, h *history.History, opts Options) (Report, error)
}

func (e engine) Name() string    { return e.name }
func (e engine) Levels() []Level { return e.levels }

func (e engine) Check(ctx context.Context, h *history.History, opts Options) (Report, error) {
	ctx, timings := phase.Start(ctx)
	rep, err := e.check(ctx, h, opts)
	if err != nil {
		return Report{}, err
	}
	rep.Checker, rep.Timings = e.name, timings()
	return rep, nil
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
	if len(r.Anomalies) == 0 {
		v.Detail = r.Witness()
	}
	return v
}

// reportFromProfile flattens a lattice profile into the wire Report:
// the requested rung's result becomes the top-level verdict, and the
// profile-specific fields carry every rung and guarantee.
func reportFromProfile(lvl Level, prof *core.Profile) Report {
	rung := prof.Rung(lvl)
	rep := ReportFromResult("", *rung)
	rep.Level = lvl
	rep.Txns = prof.NumTxns
	rep.Edges = prof.NumEdges
	rep.StrongestLevel = prof.Strongest
	rep.Detail = rung.Witness() // a pre-check anomaly too, unlike ReportFromResult
	for _, v := range prof.Rungs {
		rep.Rungs = append(rep.Rungs, RungVerdict{
			Level: v.Level, OK: v.OK, Witness: v.Witness(),
		})
	}
	rep.Guarantees = prof.Guarantees
	return rep
}

// checkMTC serves every level of the lattice through core.CheckCtx.
func checkMTC(ctx context.Context, h *history.History, opts Options) (Report, error) {
	r, err := core.CheckCtx(ctx, indexOf(ctx, h, opts), opts.Level)
	return ReportFromResult("", r), err
}

// checkIncremental replays the history through the online engine; on
// live streams the same engine is driven directly (core.Incremental).
// Options.Window > 0 selects the epoch-windowed replay: bounded memory,
// identical verdicts.
func checkIncremental(ctx context.Context, h *history.History, opts Options) (Report, error) {
	phase.Lap(ctx, "replay")
	r, err := core.CheckIncrementalWindowedCtx(ctx, h, opts.Level, opts.Window)
	return ReportFromResult("", r), err
}

// checkPolygraph serves the Cobra and PolySI baselines.
func checkPolygraph(ctx context.Context, h *history.History, opts Options) (Report, error) {
	mode := polygraph.SER
	if opts.Level == core.SI {
		mode = polygraph.SI
	}
	rep, err := polygraph.Check(ctx, indexOf(ctx, h, opts), mode)
	return Report{
		Level: opts.Level, OK: rep.OK,
		Txns: len(h.Txns), Anomalies: rep.Anomalies,
		Detail: fmt.Sprintf("constraints=%d forced=%d residual=%d", rep.Constraints, rep.Forced, rep.Residual),
	}, err
}

// checkElle serves Elle's read-write-register mode.
func checkElle(ctx context.Context, h *history.History, opts Options) (Report, error) {
	ix := indexOf(ctx, h, opts)
	phase.Lap(ctx, "check")
	rep, err := elle.CheckRWRegisterCtx(ctx, ix, elle.Level(opts.Level))
	v := Report{
		Level: opts.Level, OK: rep.OK,
		Txns: len(h.Txns), Cycle: rep.Cycle, Detail: rep.Reason,
	}
	if len(rep.Cycle) > 0 {
		v.Detail = graph.FormatCycle(rep.Cycle)
	}
	return v, err
}

// checkPorcupine serves the Porcupine (WGL) linearizability baseline
// over the lightweight-transaction path: the history must be LWT-shaped —
// every committed transaction a single-key insert (one blind write) or
// compare-and-set (read then write of the read key).
func checkPorcupine(ctx context.Context, h *history.History, opts Options) (Report, error) {
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	phase.Lap(ctx, "convert")
	ops, err := LWTFromHistory(h)
	if err != nil {
		return Report{}, &UnsupportedHistoryError{Checker: "porcupine", Reason: err.Error()}
	}
	phase.Lap(ctx, "solve")
	ok, err := porcupine.CheckCtx(ctx, ops)
	v := Report{Level: core.SSER, OK: ok, Txns: len(h.Txns)}
	if !ok {
		v.Detail = "history is not linearizable (WGL search exhausted)"
	}
	return v, err
}

// checkProfile evaluates the whole lattice plus the session guarantees
// in one pass (core.ProfileCtx). The top-level OK/Cycle fields reflect
// the rung at opts.Level — so `profile` at any level is a drop-in
// replacement for `mtc`, which the differential suite exploits — while
// StrongestLevel, Rungs and Guarantees carry the full profile.
func checkProfile(ctx context.Context, h *history.History, opts Options) (Report, error) {
	prof, err := core.ProfileCtx(ctx, indexOf(ctx, h, opts))
	if err != nil {
		return Report{}, err
	}
	return reportFromProfile(opts.Level, prof), nil
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
