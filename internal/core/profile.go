package core

import (
	"context"

	"mtc/internal/graph"
	"mtc/internal/history"
	"mtc/internal/phase"
)

// None is the pseudo-level a profile reports when even RC is violated
// (a pre-check anomaly or a G1c cycle): no rung of the lattice holds.
const None Level = "NONE"

// Witness renders the evidence that breaks r's level, or "" when it
// passed.
func (r Result) Witness() string {
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
	Guarantee Guarantee `json:"guarantee"`
	OK        bool      `json:"ok"`
	// Session and Witness locate the first violation (Session is -1 when
	// OK, or when the pre-check already failed and the guarantees are
	// vacuously violated).
	Session int    `json:"session,omitempty"`
	Witness string `json:"witness,omitempty"`
}

// Profile is the full lattice profile of one history.
type Profile struct {
	// Strongest is the strongest isolation level the history satisfies,
	// or None when every rung is violated. The rung verdicts are
	// monotone (a violated rung invalidates everything above), so the
	// level below each violation is exactly where the history lands.
	Strongest Level
	// NumTxns and NumEdges describe the shared dependency derivation.
	NumTxns  int
	NumEdges int
	// Rungs holds one result per lattice level, in Lattice() order.
	Rungs []Result
	// Guarantees holds the four session-guarantee verdicts.
	Guarantees []GuaranteeVerdict
}

// Rung returns the result at lvl, or nil when lvl is not in the lattice.
func (p *Profile) Rung(lvl Level) *Result {
	if r := LatticeRank(lvl); r >= 0 {
		return &p.Rungs[r]
	}
	return nil
}

// ProfileCtx evaluates every isolation level and session guarantee of
// the indexed history from one dependency derivation, walking the
// lattice with short-circuiting: the strong rungs run first and a pass
// there settles every weaker rung and the session guarantees, so the
// weak checks only execute on histories that already violate SI and the
// guarantee scan on those that violate SER.
//
// Every rung takes the pre-check axioms (INT, unique committed writers)
// as its base: a G1a/G1b witness fails the whole lattice at once. The
// short-circuit is sound because every WW edge of the derived graph
// parallels a WR edge (the RMW pattern), so a G1c cycle is a causal
// cycle, a causal cycle or lifted RW cycle is an SI-induced cycle, and
// an SI pass forbids both fractured reads and divergence; a SER pass
// implies an SI pass because every induced cycle expands to a base
// cycle. A violated session guarantee closes a cycle in the shared
// graph through the session's own SO path (see sessionGuarantees), so a
// SER pass settles all four. The SSER rung reuses the SER cycle search,
// so a profile never searches twice.
func ProfileCtx(ctx context.Context, ix *history.Index) (*Profile, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := &Profile{NumTxns: ix.NumTxns()}
	as, d, err := precheckedDeps(ctx, ix)
	if len(as) > 0 {
		// Shared anomaly evidence: a G1a/G1b/INT witness fails every
		// rung (and the guarantees, whose read semantics it voids) at
		// once; the graph derived beside the pre-check goes unused.
		for _, lvl := range Lattice() {
			p.Rungs = append(p.Rungs, Result{Level: lvl, Anomalies: as, NumTxns: p.NumTxns})
		}
		p.Strongest = None
		w := "pre-check: " + as[0].String()
		for _, g := range Guarantees() {
			p.Guarantees = append(p.Guarantees, GuaranteeVerdict{
				Guarantee: g, Session: -1, Witness: w,
			})
		}
		return p, nil
	}
	if err != nil {
		return nil, err
	}
	p.NumEdges = d.Graph.NumEdges()

	phase.Lap(ctx, "rungs")
	ser, err := d.Rung(ctx, SER)
	if err != nil {
		return nil, err
	}
	var si, causal, ra, rc Result
	switch {
	case ser.OK:
		// SER ⇒ SI ⇒ CAUSAL ⇒ RA ⇒ RC.
		si, causal, ra, rc = d.pass(SI), d.pass(CAUSAL), d.pass(RA), d.pass(RC)
	default:
		if si, err = d.Rung(ctx, SI); err != nil {
			return nil, err
		}
		switch {
		case si.OK:
			causal, ra, rc = d.pass(CAUSAL), d.pass(RA), d.pass(RC)
		default:
			if causal, err = d.checkCausal(ctx); err != nil {
				return nil, err
			}
			if causal.OK {
				ra, rc = d.pass(RA), d.pass(RC)
			} else {
				rc = d.checkRC()
				ra = d.checkRA(rc)
			}
		}
	}
	if ser.OK {
		p.Guarantees = passedGuarantees()
	} else {
		p.Guarantees = d.sessionGuarantees()
	}
	sser, err := d.checkSSER(ctx, ser)
	if err != nil {
		return nil, err
	}

	p.Rungs = []Result{rc, ra, causal, si, ser, sser}
	p.Strongest = None
	for i := len(p.Rungs) - 1; i >= 0; i-- {
		if p.Rungs[i].OK {
			p.Strongest = p.Rungs[i].Level
			break
		}
	}
	return p, nil
}

// pass is the result of a rung settled by a stronger rung's verdict.
func (d *Deps) pass(lvl Level) Result {
	return Result{Level: lvl, OK: true, NumTxns: d.Index.NumTxns(), NumEdges: d.Graph.NumEdges()}
}
