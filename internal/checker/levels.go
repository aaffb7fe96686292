package checker

import (
	"context"
	"time"

	"mtc/internal/core"
	"mtc/internal/history"
	"mtc/internal/levels"
)

func init() {
	Register(weakChecker{lvl: core.RC, name: "rc"})
	Register(weakChecker{lvl: core.RA, name: "ra"})
	Register(weakChecker{lvl: core.CAUSAL, name: "causal"})
	Register(profileChecker{})
}

// weakChecker serves one weak-level rung (RC, RA or CAUSAL) of the
// isolation lattice through internal/levels.
type weakChecker struct {
	lvl  Level
	name string
}

func (c weakChecker) Name() string    { return c.name }
func (c weakChecker) Levels() []Level { return []Level{c.lvl} }

func (c weakChecker) Check(ctx context.Context, h *history.History, opts Options) (Report, error) {
	start := time.Now()
	r, err := levels.CheckLevel(ctx, indexOf(h, opts), c.lvl, levels.Options{
		SkipPreCheck: opts.SkipPreCheck, Parallelism: opts.Parallelism,
	})
	if err != nil {
		return Report{}, err
	}
	rep := ReportFromResult(c.name, r)
	rep.Timings = []PhaseTiming{{Phase: "check", Millis: millis(time.Since(start))}}
	return rep, nil
}

// profileChecker evaluates the whole lattice plus the session
// guarantees in one pass (levels.Profile). The top-level OK/Cycle
// fields reflect the rung at opts.Level — so `profile` at SER or SI is
// a drop-in replacement for the dedicated engines, which the
// differential suite exploits — while StrongestLevel, Rungs and
// Guarantees carry the full profile.
type profileChecker struct{}

func (profileChecker) Name() string { return "profile" }

func (profileChecker) Levels() []Level {
	return []Level{core.SI, core.SER, core.SSER, core.CAUSAL, core.RA, core.RC}
}

func (profileChecker) Check(ctx context.Context, h *history.History, opts Options) (Report, error) {
	start := time.Now()
	prof, err := levels.Profile(ctx, indexOf(h, opts), levels.Options{
		SkipPreCheck: opts.SkipPreCheck, Parallelism: opts.Parallelism,
	})
	if err != nil {
		return Report{}, err
	}
	rep := ReportFromProfile("profile", opts.Level, prof)
	rep.Timings = []PhaseTiming{{Phase: "profile", Millis: millis(time.Since(start))}}
	return rep, nil
}

// ReportFromProfile flattens a lattice profile into the wire Report:
// the requested rung's result becomes the top-level verdict, and the
// profile-specific fields carry every rung and guarantee. Shared with
// mtcserve's job path and the CLIs.
func ReportFromProfile(name string, lvl Level, prof *levels.Report) Report {
	rung := prof.Rung(lvl)
	rep := ReportFromResult(name, rung.Res)
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
