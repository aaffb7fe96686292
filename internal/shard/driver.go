package shard

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/graph"
	"mtc/internal/history"
	"mtc/internal/phase"
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
// pass. Either way the engine is handed its history's index through
// Options.Index, built from the key column the split interned, so a
// sharded check interns every key once. The split is timed as the
// "partition" phase, ahead of the engine's.
func Check(ctx context.Context, c checker.Checker, h *history.History, opts checker.Options) (checker.Report, error) {
	pctx, timings := phase.Start(ctx)
	phase.Lap(pctx, "partition")
	p := Split(h)
	partition := timings()

	inner := opts
	inner.Shard = 0
	if len(p.Components) <= 1 {
		if inner.Index == nil || inner.Index.History() != h {
			// Ranks p.col.opKey in place: p is not encoded or cut after this.
			inner.Index = history.IndexColumns(h, p.col.names, p.col.opKey)
		}
		rep, err := c.Check(ctx, h, inner)
		if err != nil {
			return checker.Report{}, err
		}
		rep.ShardComponents = max(len(p.Components), 1) // 0: nothing to split (e.g. init-only history)
		rep.Timings = append(partition, rep.Timings...)
		return rep, nil
	}

	// Per-component fan-out with item granularity: components are few
	// and coarse, so workers claim them one at a time, and each cuts its
	// component's index from the key column before checking it.
	n := len(p.Components)
	workers := opts.Shard
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
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
				opts := inner
				opts.Index = p.col.index(i, &p.Components[i])
				reports[i], errs[i] = c.Check(ctx, p.Components[i].H, opts)
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
	rep.Timings = append(partition, rep.Timings...)
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
//     session guarantee is the conjunction. A violated guarantee names
//     the lowest violating source session, as the unsharded scan does
//     (-1, a pre-check that voids it, wins over any session). Rung and
//     guarantee witnesses are engine-rendered strings, so a violated
//     entry keeps its offending component's witness prefixed with the
//     component index (the transaction/session ids in it are
//     component-local).
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
	offender := -1                         // component index of the first offense
	offenderAt := -1                       // its FirstOffense
	rungAt := make(map[checker.Level]int)  // level -> index in out.Rungs
	guarAt := make(map[core.Guarantee]int) // guarantee -> index in out.Guarantees
	for i := range reports {
		rep := remap(p.Source, &p.Components[i], reports[i])
		mergeProfile(&out, rep, i, rungAt, guarAt)
		if n := len(p.Components[i].H.Txns); n > largest {
			largest = n
		}
		out.Edges += rep.Edges
		out.CompactedEpochs += rep.CompactedEpochs
		out.CompactedTxns += rep.CompactedTxns
		out.Anomalies = append(out.Anomalies, rep.Anomalies...)
		for _, ph := range rep.Timings {
			if at := slices.IndexFunc(out.Timings, func(t checker.PhaseTiming) bool { return t.Phase == ph.Phase }); at >= 0 {
				out.Timings[at].Millis += ph.Millis
			} else {
				out.Timings = append(out.Timings, ph)
			}
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
// inside are component-local. A violated guarantee keeps the lowest
// session across components (or -1) and that component's witness.
func mergeProfile(out *checker.Report, rep checker.Report, i int, rungAt map[checker.Level]int, guarAt map[core.Guarantee]int) {
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
		if gv.OK {
			continue
		}
		if g := &out.Guarantees[at]; g.OK || (g.Session >= 0 && (gv.Session < 0 || gv.Session < g.Session)) {
			g.OK, g.Session = false, gv.Session
			g.Witness = fmt.Sprintf("component %d: %s", i, gv.Witness)
		}
	}
}

// remap rewrites a component report's anomaly and cycle ids to external
// ids (core.RemapResult), re-rendering a cycle's Detail, and its guarantee
// sessions to sessions of src. Other Detail strings are left untouched.
func remap(src *history.History, c *Component, rep checker.Report) checker.Report {
	if len(rep.Guarantees) > 0 {
		gs := make([]checker.GuaranteeVerdict, len(rep.Guarantees))
		for i, g := range rep.Guarantees {
			g.Session = c.sourceSession(src, g.Session)
			gs[i] = g
		}
		rep.Guarantees = gs
	}
	r := core.RemapResult(core.Result{Anomalies: rep.Anomalies, Cycle: rep.Cycle}, c.Ext)
	rep.Anomalies, rep.Cycle = r.Anomalies, r.Cycle
	if len(rep.Cycle) > 0 {
		rep.Detail = graph.FormatCycle(rep.Cycle)
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
