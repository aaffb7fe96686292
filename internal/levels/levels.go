// Package levels widens the verification service from a yes/no oracle
// for the strong levels into an isolation profiler over the full
// Adya-style lattice:
//
//	RC < RA < CAUSAL < SI < SER < SSER
//
// plus the four per-session guarantees (read-your-writes, monotonic
// reads, monotonic writes, writes-follow-reads) as a separate axis.
// Everything is evaluated from ONE shared history.Index and ONE
// core.BuildDependencyCtx derivation — the weak rungs are verdict layers
// over the typed dependency graph the strong checkers already pay for:
//
//   - RC (read committed, PL-2) forbids the G0/G1 phenomena: the
//     dirty/intermediate/thin-air reads the pre-check reports, and G1c —
//     a cycle of WR ∪ WW edges.
//   - RA (read atomic) additionally forbids fractured reads: a
//     transaction that observes one of a writer's updates must not
//     observe a strictly older version of another key that writer also
//     wrote (RAMP's atomic-visibility criterion, decided over per-key
//     version orders).
//   - CAUSAL requires the causal order SO ∪ WR to be acyclic and, lifted
//     over anti-dependencies, that no transaction misses a write that
//     causally precedes it: an RW edge T -> S with S ~>(SO ∪ WR) T closes
//     a forbidden cycle.
//   - SI / SER / SSER are core's own rungs (core.Deps.Rung and
//     core.Deps.Inversion, the code core.CheckCtx runs) evaluated on the
//     shared derivation, so profile verdicts are bit-identical to the
//     dedicated checker by construction.
//
// Every rung takes the pre-check axioms (INT, unique committed writers)
// as its base: a G1a/G1b witness fails the whole lattice at once, which
// is also what lets Profile short-circuit — a pass at SER implies every
// weaker rung passes, so the weak checks only run on histories that
// already failed the strong ones. Implication chain (soundness of the
// short-circuit): every WW edge of the derived graph parallels a WR edge
// (the RMW pattern), so a G1c cycle is a causal cycle, a causal cycle or
// lifted RW cycle is an SI-induced cycle, and an SI pass forbids both
// fractured reads and divergence; SER pass implies SI pass because every
// induced cycle expands to a base cycle.
//
// The session guarantees short-circuit the same way: each is flagged
// only when a version is a strict WW-ancestor of one the session wrote
// or observed earlier, and that ancestry closes a cycle in the shared
// graph through the session's own SO path — for a stale read T of
// writer W against an earlier session transaction P, T -RW-> C -WW*->
// ... -> P -SO+-> T where C is the overwriter of W's version on the
// path (or T -WW*-> ... when T is C); for a write T landing before P's,
// T -WW+-> P -SO+-> T; for a write landing before a version W the
// session read in A, T -WW+-> W -WR-> A -SO*-> T. A SER pass therefore
// settles all four guarantees, and the scan runs only below it.
//
// Version-order comparisons (fractured reads, session guarantees) treat
// incomparable writes — divergent branches of a key's WW forest — as
// unordered and never flag them: only a positively contradicted order is
// a violation, so blind-write histories with undetermined write orders
// produce no false positives. Divergence itself is rejected at SI, its
// rung in the lattice.
package levels

import (
	"context"

	"mtc/internal/core"
	"mtc/internal/graph"
	"mtc/internal/history"
)

// None is the pseudo-level a profile reports when even RC is violated
// (a pre-check anomaly or a G1c cycle): no rung of the lattice holds.
const None core.Level = "NONE"

// Options tunes a profile or single-rung run.
type Options struct {
	// Parallelism bounds the worker pool of the causal reachability
	// closure, the one parallel phase. <= 0 selects GOMAXPROCS;
	// verdicts are identical at every setting.
	Parallelism int
}

// Verdict is one rung's outcome: the level and the full engine result,
// whose counterexample fields (anomalies, divergence, cycle) carry the
// witness that breaks the rung.
type Verdict struct {
	Level core.Level
	Res   core.Result
}

// Witness renders the rung's breaking evidence, or "" when it passed.
func (v Verdict) Witness() string {
	r := v.Res
	switch {
	case r.OK:
		return ""
	case len(r.Anomalies) > 0:
		return r.Anomalies[0].String()
	case r.Divergence != nil:
		return r.Divergence.String()
	case len(r.Cycle) > 0:
		return graph.FormatCycle(r.Cycle)
	}
	return ""
}

// Guarantee names one of the four per-session guarantees.
type Guarantee string

// The session guarantees, checked per session over the per-key version
// orders (the WW forest the shared derivation already determines).
const (
	ReadYourWrites    Guarantee = "RYW" // reads see the session's own earlier writes
	MonotonicReads    Guarantee = "MR"  // reads never step back in version order
	MonotonicWrites   Guarantee = "MW"  // the session's writes are version-ordered as issued
	WritesFollowReads Guarantee = "WFR" // writes are ordered after the versions the session read
)

// Guarantees lists the four session guarantees in reporting order.
func Guarantees() []Guarantee {
	return []Guarantee{ReadYourWrites, MonotonicReads, MonotonicWrites, WritesFollowReads}
}

// GuaranteeVerdict is the outcome of one session guarantee across every
// session of the history.
type GuaranteeVerdict struct {
	Guarantee Guarantee
	OK        bool
	// Session and Witness locate the first violation (Session is -1 when
	// OK, or when the pre-check already failed and the guarantees are
	// vacuously violated).
	Session int
	Witness string
}

// Report is the full lattice profile of one history.
type Report struct {
	// Strongest is the strongest isolation level the history satisfies,
	// or None when every rung is violated. The rung verdicts are
	// monotone (a violated rung invalidates everything above), so the
	// level below each violation is exactly where the history lands.
	Strongest core.Level
	// NumTxns and NumEdges describe the shared dependency derivation.
	NumTxns  int
	NumEdges int
	// Rungs holds one verdict per lattice level, weakest (RC) first.
	Rungs []Verdict
	// Guarantees holds the four session-guarantee verdicts.
	Guarantees []GuaranteeVerdict
}

// Rung returns the verdict at lvl, or nil.
func (r *Report) Rung(lvl core.Level) *Verdict {
	for i := range r.Rungs {
		if r.Rungs[i].Level == lvl {
			return &r.Rungs[i]
		}
	}
	return nil
}

// Breaking returns the weakest violated rung — the one whose witness
// explains why Strongest is not higher — or nil when every rung passed.
func (r *Report) Breaking() *Verdict {
	for i := range r.Rungs {
		if !r.Rungs[i].Res.OK {
			return &r.Rungs[i]
		}
	}
	return nil
}

// Profile evaluates every isolation level and session guarantee of the
// indexed history from one dependency derivation, walking the lattice
// with short-circuiting: the strong rungs run first and a pass there
// settles every weaker rung and the session guarantees, so the weak
// checks only execute on histories that already violate SI and the
// guarantee scan on those that violate SER.
func Profile(ctx context.Context, ix *history.Index, opts Options) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep := &Report{NumTxns: ix.NumTxns()}
	if as := history.CheckInternalIndexed(ix); len(as) > 0 {
		// Shared anomaly evidence: a G1a/G1b/INT witness fails every
		// rung (and the guarantees, whose read semantics it voids) at
		// once — no graph is built.
		for _, lvl := range core.Lattice() {
			rep.Rungs = append(rep.Rungs, Verdict{Level: lvl, Res: core.Result{
				Level: lvl, Anomalies: as, NumTxns: rep.NumTxns,
			}})
		}
		rep.Strongest = None
		w := "pre-check: " + as[0].String()
		for _, g := range Guarantees() {
			rep.Guarantees = append(rep.Guarantees, GuaranteeVerdict{
				Guarantee: g, Session: -1, Witness: w,
			})
		}
		return rep, nil
	}
	deps, err := core.BuildDependencyCtx(ctx, ix)
	if err != nil {
		return nil, err
	}
	d := &derived{Deps: deps}
	rep.NumEdges = d.Graph.NumEdges()

	ser, err := d.Rung(ctx, core.SER)
	if err != nil {
		return nil, err
	}
	var si, causal, ra, rc core.Result
	switch {
	case ser.OK:
		// SER ⇒ SI ⇒ CAUSAL ⇒ RA ⇒ RC (see the package comment).
		si, causal, ra, rc = d.pass(core.SI), d.pass(core.CAUSAL), d.pass(core.RA), d.pass(core.RC)
	default:
		if si, err = d.Rung(ctx, core.SI); err != nil {
			return nil, err
		}
		switch {
		case si.OK:
			causal, ra, rc = d.pass(core.CAUSAL), d.pass(core.RA), d.pass(core.RC)
		default:
			if causal, err = d.checkCausal(ctx, opts.Parallelism); err != nil {
				return nil, err
			}
			if causal.OK {
				ra, rc = d.pass(core.RA), d.pass(core.RC)
			} else {
				rc = d.checkRC()
				ra = d.checkRA(rc)
			}
		}
	}
	// A violated guarantee closes a cycle in the shared graph (see the
	// package comment), so a SER pass settles all four and the scan runs
	// only on histories that already failed SER.
	if ser.OK {
		rep.Guarantees = passedGuarantees()
	} else {
		rep.Guarantees = d.sessionGuarantees()
	}
	sser, err := d.checkSSER(ctx, ser)
	if err != nil {
		return nil, err
	}

	rep.Rungs = []Verdict{
		{core.RC, rc}, {core.RA, ra}, {core.CAUSAL, causal},
		{core.SI, si}, {core.SER, ser}, {core.SSER, sser},
	}
	rep.Strongest = None
	for i := len(rep.Rungs) - 1; i >= 0; i-- {
		if rep.Rungs[i].Res.OK {
			rep.Strongest = rep.Rungs[i].Level
			break
		}
	}
	return rep, nil
}

// CheckLevel verifies the indexed history at a single level. The strong
// levels are core.CheckCtx's; RC, RA and CAUSAL are evaluated here over
// the same derivation. Like the strong pipeline it returns a Result
// whose counterexample fields carry the witness.
func CheckLevel(ctx context.Context, ix *history.Index, lvl core.Level, opts Options) (core.Result, error) {
	switch lvl {
	case core.RC, core.RA, core.CAUSAL:
	default:
		return core.CheckCtx(ctx, ix, lvl)
	}
	if err := ctx.Err(); err != nil {
		return core.Result{}, err
	}
	if as := history.CheckInternalIndexed(ix); len(as) > 0 {
		return core.Result{Level: lvl, Anomalies: as, NumTxns: ix.NumTxns()}, nil
	}
	deps, err := core.BuildDependencyCtx(ctx, ix)
	if err != nil {
		return core.Result{}, err
	}
	d := &derived{Deps: deps}
	switch lvl {
	case core.RC:
		return d.checkRC(), nil
	case core.RA:
		return d.checkRA(d.checkRC()), nil
	default:
		return d.checkCausal(ctx, opts.Parallelism)
	}
}
