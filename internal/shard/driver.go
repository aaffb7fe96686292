package shard

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/graph"
	"mtc/internal/history"
)

func init() {
	// The package init of internal/checker runs first — this package
	// imports it — so linking internal/shard is what turns
	// checker.Options.Shard on for every registered engine.
	checker.ShardCheck = Check
}

// Check is the sharded driver behind checker.Run with Options.Shard > 0:
// decompose h, check the components concurrently through c (at most
// opts.Shard at a time, GOMAXPROCS when called directly with Shard <= 0),
// and merge. The report keeps c's name; ShardComponents says it was
// sharded. A history that decomposes into a single component is checked
// directly — sharding degenerates to the plain engine plus a partition
// pass.
func Check(ctx context.Context, c checker.Checker, h *history.History, opts checker.Options) (checker.Report, error) {
	splitStart := time.Now()
	p := Split(h)
	splitTime := time.Since(splitStart)

	inner := opts
	inner.Shard = 0
	if len(p.Components) <= 1 {
		rep, err := c.Check(ctx, h, inner)
		if err != nil {
			return checker.Report{}, err
		}
		rep.ShardComponents = len(p.Components)
		if rep.ShardComponents == 0 {
			rep.ShardComponents = 1 // nothing to split (e.g. init-only history)
		}
		return rep, nil
	}

	// Per-component fan-out with item granularity: components are few
	// and coarse, so workers claim them one at a time (graph.ParallelDo's
	// chunked claiming would hand all of them to a single worker).
	n := len(p.Components)
	workers := graph.Parallelism(opts.Shard)
	if workers > n {
		workers = n
	}
	// The engine-internal parallelism budget is divided across the
	// concurrent component checks, so the total worker count stays at
	// the caller's budget instead of multiplying to Shard*Parallelism
	// (which would oversubscribe the host the server clamps protect).
	if inner.Parallelism = graph.Parallelism(opts.Parallelism) / workers; inner.Parallelism < 1 {
		inner.Parallelism = 1
	}
	reports := make([]checker.Report, n)
	errs := make([]error, n)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				reports[i], errs[i] = c.Check(ctx, p.Components[i].H, inner)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return checker.Report{}, err
	}
	for _, err := range errs {
		if err != nil {
			return checker.Report{}, err
		}
	}
	rep := Merge(p, c.Name(), opts.Level, reports)
	rep.Timings = append([]checker.PhaseTiming{
		{Phase: "partition", Millis: float64(splitTime) / float64(time.Millisecond)},
	}, rep.Timings...)
	return rep, nil
}

// Merge combines per-component reports into the whole-history verdict:
//
//   - OK is the conjunction (the decomposition invariant makes this
//     exact: no dependency edge crosses components);
//   - anomalies are remapped to external transaction ids, concatenated,
//     and sorted by external position (then kind, key, value);
//   - the counterexample cycle is taken from the first-offending
//     component — the violating component whose smallest implicated
//     external transaction id is minimal — with its edges remapped, so
//     FirstOffense(merged) is the minimum across components;
//   - edge counts, per-phase timings (by phase name) and compaction
//     stats are summed; Txns is the source history's size;
//   - profile fields fold exactly because no dependency edge or session
//     crosses components: each lattice rung is the per-component
//     conjunction, the strongest level is the lattice minimum, and each
//     session guarantee is the conjunction. Rung and guarantee witnesses
//     are engine-rendered strings, so a violated entry keeps the first
//     offending component's witness prefixed with its component index
//     (the transaction/session ids in it are component-local).
//
// Engine-specific Detail strings are kept from the first-offending
// component; structured fields (anomalies, cycle edges) always carry
// external ids.
func Merge(p *Partition, engine string, lvl checker.Level, reports []checker.Report) checker.Report {
	out := checker.Report{
		Checker: engine, Level: lvl, OK: true,
		Txns:            len(p.Source.Txns),
		ShardComponents: len(p.Components),
	}
	largest := 0
	offender := -1   // component index of the first offense
	offenderAt := -1 // its FirstOffense
	var phaseOrder []string
	phaseSum := make(map[string]float64)
	rungAt := make(map[checker.Level]int) // level -> index in out.Rungs
	guarAt := make(map[string]int)        // guarantee -> index in out.Guarantees
	for i := range reports {
		rep := remap(&p.Components[i], reports[i])
		mergeProfile(&out, rep, i, rungAt, guarAt)
		if n := len(p.Components[i].H.Txns); n > largest {
			largest = n
		}
		out.Edges += rep.Edges
		out.CompactedEpochs += rep.CompactedEpochs
		out.CompactedTxns += rep.CompactedTxns
		out.Anomalies = append(out.Anomalies, rep.Anomalies...)
		for _, ph := range rep.Timings {
			if _, seen := phaseSum[ph.Phase]; !seen {
				phaseOrder = append(phaseOrder, ph.Phase)
			}
			phaseSum[ph.Phase] += ph.Millis
		}
		if !rep.OK {
			out.OK = false
			at := FirstOffense(rep)
			if offender < 0 || (at >= 0 && (offenderAt < 0 || at < offenderAt)) {
				offender, offenderAt = i, at
				out.Cycle = rep.Cycle
				out.Detail = rep.Detail
			}
		}
	}
	sortAnomalies(out.Anomalies)
	for _, ph := range phaseOrder {
		out.Timings = append(out.Timings, checker.PhaseTiming{Phase: ph, Millis: phaseSum[ph]})
	}
	summary := fmt.Sprintf("sharded: %d components (largest %d txns)", len(p.Components), largest)
	switch {
	case out.Detail != "":
		out.Detail = fmt.Sprintf("%s; component %d: %s", summary, offender, out.Detail)
	default:
		out.Detail = summary
	}
	return out
}

// mergeProfile folds component i's profile fields (strongest level,
// lattice rungs, session guarantees) into the merged report. Rungs and
// guarantees conjoin per entry; a newly violated entry adopts the
// component's witness, prefixed with the component index since the ids
// inside are component-local.
func mergeProfile(out *checker.Report, rep checker.Report, i int, rungAt map[checker.Level]int, guarAt map[string]int) {
	if rep.StrongestLevel != "" {
		if out.StrongestLevel == "" ||
			core.LatticeRank(rep.StrongestLevel) < core.LatticeRank(out.StrongestLevel) {
			out.StrongestLevel = rep.StrongestLevel
		}
	}
	for _, rv := range rep.Rungs {
		at, seen := rungAt[rv.Level]
		if !seen {
			at = len(out.Rungs)
			rungAt[rv.Level] = at
			out.Rungs = append(out.Rungs, checker.RungVerdict{Level: rv.Level, OK: true})
		}
		if !rv.OK && out.Rungs[at].OK {
			out.Rungs[at].OK = false
			out.Rungs[at].Witness = fmt.Sprintf("component %d: %s", i, rv.Witness)
		}
	}
	for _, gv := range rep.Guarantees {
		at, seen := guarAt[gv.Guarantee]
		if !seen {
			at = len(out.Guarantees)
			guarAt[gv.Guarantee] = at
			out.Guarantees = append(out.Guarantees, checker.GuaranteeVerdict{Guarantee: gv.Guarantee, OK: true, Session: -1})
		}
		if !gv.OK && out.Guarantees[at].OK {
			out.Guarantees[at].OK = false
			out.Guarantees[at].Witness = fmt.Sprintf("component %d: %s", i, gv.Witness)
		}
	}
}

// remap rewrites a component report's transaction ids (anomalies and
// cycle edges) to external ids. Detail strings are engine-rendered and
// left untouched.
func remap(c *Component, rep checker.Report) checker.Report {
	if len(rep.Anomalies) > 0 {
		as := make([]history.Anomaly, len(rep.Anomalies))
		for i, a := range rep.Anomalies {
			a.Txn = c.ExtOf(a.Txn)
			as[i] = a
		}
		rep.Anomalies = as
	}
	if len(rep.Cycle) > 0 {
		cy := make([]graph.Edge, len(rep.Cycle))
		for i, e := range rep.Cycle {
			e.From, e.To = c.ExtOf(e.From), c.ExtOf(e.To)
			cy[i] = e
		}
		rep.Cycle = cy
		rep.Detail = graph.FormatCycle(cy)
	}
	return rep
}

// FirstOffense returns the smallest transaction id implicated by the
// report's counterexample (anomalies and cycle edges), or -1 when the
// report carries no structured counterexample. On a merged sharded
// report the ids are external, so this is the first offending
// transaction position across all components.
func FirstOffense(rep checker.Report) int {
	min := -1
	upd := func(id int) {
		if id >= 0 && (min < 0 || id < min) {
			min = id
		}
	}
	for _, a := range rep.Anomalies {
		upd(a.Txn)
	}
	for _, e := range rep.Cycle {
		upd(e.From)
		upd(e.To)
	}
	return min
}

// sortAnomalies orders a merged anomaly list deterministically by
// external transaction position, then kind, key and value.
func sortAnomalies(as []history.Anomaly) {
	sort.SliceStable(as, func(i, j int) bool {
		a, b := as[i], as[j]
		if a.Txn != b.Txn {
			return a.Txn < b.Txn
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Value < b.Value
	})
}
