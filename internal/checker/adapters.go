package checker

import (
	"context"
	"fmt"
	"time"

	"mtc/internal/cobra"
	"mtc/internal/core"
	"mtc/internal/elle"
	"mtc/internal/graph"
	"mtc/internal/history"
	"mtc/internal/polysi"
	"mtc/internal/porcupine"
)

func init() {
	Register(mtcChecker{})
	Register(incrementalChecker{})
	Register(cobraChecker{})
	Register(polysiChecker{})
	Register(elleChecker{})
	Register(porcupineChecker{})
}

// millis converts a duration to the PhaseTiming unit.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

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

// mtcChecker serves the paper's batch MTC algorithms (Section IV).
type mtcChecker struct{}

func (mtcChecker) Name() string    { return "mtc" }
func (mtcChecker) Levels() []Level { return []Level{core.SI, core.SER, core.SSER} }

func (mtcChecker) Check(ctx context.Context, h *history.History, opts Options) (Report, error) {
	start := time.Now()
	r, err := core.CheckCtx(ctx, indexOf(h, opts), opts.Level, core.Options{SkipPreCheck: opts.SkipPreCheck})
	if err != nil {
		return Report{}, err
	}
	rep := ReportFromResult("mtc", r)
	rep.Timings = []PhaseTiming{{Phase: "check", Millis: millis(time.Since(start))}}
	return rep, nil
}

// incrementalChecker replays the history through the online engine; on
// live streams the same engine is driven directly (core.Incremental).
// Options.Window > 0 selects the epoch-windowed replay: bounded memory,
// identical verdicts.
type incrementalChecker struct{}

func (incrementalChecker) Name() string    { return "mtc-incremental" }
func (incrementalChecker) Levels() []Level { return []Level{core.SI, core.SER} }

func (incrementalChecker) Check(ctx context.Context, h *history.History, opts Options) (Report, error) {
	start := time.Now()
	r, err := core.CheckIncrementalWindowedCtx(ctx, h, opts.Level, opts.Window)
	if err != nil {
		return Report{}, err
	}
	rep := ReportFromResult("mtc-incremental", r)
	rep.Timings = []PhaseTiming{{Phase: "replay", Millis: millis(time.Since(start))}}
	return rep, nil
}

// cobraChecker serves the Cobra SER baseline.
type cobraChecker struct{}

func (cobraChecker) Name() string    { return "cobra" }
func (cobraChecker) Levels() []Level { return []Level{core.SER} }

func (cobraChecker) Check(ctx context.Context, h *history.History, opts Options) (Report, error) {
	rep, err := cobra.CheckSERPar(ctx, h, opts.Parallelism)
	if err != nil {
		return Report{}, err
	}
	return Report{
		Checker: "cobra", Level: core.SER, OK: rep.OK,
		Txns: len(h.Txns), Anomalies: rep.Anomalies,
		Detail: fmt.Sprintf("constraints=%d forced=%d residual=%d", rep.Constraints, rep.Forced, rep.Residual),
		Timings: []PhaseTiming{
			{Phase: "build", Millis: millis(rep.BuildTime)},
			{Phase: "prune", Millis: millis(rep.PruneTime)},
			{Phase: "solve", Millis: millis(rep.SolveTime)},
		},
	}, nil
}

// polysiChecker serves the PolySI SI baseline.
type polysiChecker struct{}

func (polysiChecker) Name() string    { return "polysi" }
func (polysiChecker) Levels() []Level { return []Level{core.SI} }

func (polysiChecker) Check(ctx context.Context, h *history.History, opts Options) (Report, error) {
	rep, err := polysi.CheckSIPar(ctx, h, opts.Parallelism)
	if err != nil {
		return Report{}, err
	}
	return Report{
		Checker: "polysi", Level: core.SI, OK: rep.OK,
		Txns: len(h.Txns), Anomalies: rep.Anomalies,
		Detail: fmt.Sprintf("constraints=%d forced=%d residual=%d", rep.Constraints, rep.Forced, rep.Residual),
		Timings: []PhaseTiming{
			{Phase: "build", Millis: millis(rep.BuildTime)},
			{Phase: "prune", Millis: millis(rep.PruneTime)},
			{Phase: "solve", Millis: millis(rep.SolveTime)},
		},
	}, nil
}

// elleChecker serves Elle's read-write-register mode.
type elleChecker struct{}

func (elleChecker) Name() string    { return "elle" }
func (elleChecker) Levels() []Level { return []Level{core.SER, core.SI} }

func (elleChecker) Check(ctx context.Context, h *history.History, opts Options) (Report, error) {
	start := time.Now()
	rep, err := elle.CheckRWRegisterCtx(ctx, h, elle.Level(opts.Level))
	if err != nil {
		return Report{}, err
	}
	v := Report{
		Checker: "elle", Level: opts.Level, OK: rep.OK,
		Txns: len(h.Txns), Cycle: rep.Cycle, Detail: rep.Reason,
		Timings: []PhaseTiming{{Phase: "check", Millis: millis(time.Since(start))}},
	}
	if len(rep.Cycle) > 0 {
		v.Detail = graph.FormatCycle(rep.Cycle)
	}
	return v, nil
}

// porcupineChecker serves the Porcupine (WGL) linearizability baseline
// over the lightweight-transaction path: the history must be LWT-shaped —
// every committed transaction a single-key insert (one blind write) or
// compare-and-set (read then write of the read key).
type porcupineChecker struct{}

func (porcupineChecker) Name() string    { return "porcupine" }
func (porcupineChecker) Levels() []Level { return []Level{core.SSER} }

func (porcupineChecker) Check(ctx context.Context, h *history.History, opts Options) (Report, error) {
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
		Checker: "porcupine", Level: core.SSER, OK: ok, Txns: len(h.Txns),
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
