// Package elle re-implements the Elle baseline (Kingsbury & Alvaro,
// VLDB'20): an isolation checker that infers dependencies from list-append
// workloads. Reading a list [v1..vk] fixes the version order of the k
// appends, from which write-write, write-read and read-write dependencies
// follow; cycles over those dependencies (plus session order) witness
// violations. The package also provides Elle's read-write-register mode,
// which can only exploit reads-from information and RMW patterns — the
// reason its bug-detection power depends so strongly on workload shape
// (Figure 13). That mode is Algorithm 1's derivation, read from core,
// plus Elle's own reasons: the pre-check's first anomaly, a lost update
// at SI, and the cycle it found.
package elle

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"

	"mtc/internal/core"
	"mtc/internal/graph"
	"mtc/internal/history"
)

// Op is a list-append history operation: an append of Value to Key, or a
// read of Key observing List.
type Op struct {
	Append bool
	Key    history.Key
	Value  history.Value   // appended value
	List   []history.Value // observed list (reads)
}

// Txn is a transaction of a list-append history.
type Txn struct {
	ID        int
	Session   int
	Ops       []Op
	Committed bool
	Start     int64
	Finish    int64
}

// History is a list-append history grouped into sessions.
type History struct {
	Txns     []Txn
	Sessions [][]int
}

// Level selects the isolation condition to check.
type Level string

// Supported levels.
const (
	SER Level = "SER"
	SI  Level = "SI"
)

// Report is the verdict of an Elle check.
type Report struct {
	OK     bool
	Level  Level
	Reason string       // human-readable cause when !OK
	Cycle  []graph.Edge // present for cyclic violations
}

// CheckListAppend verifies a list-append history against the level.
func CheckListAppend(h *History, lvl Level) Report {
	rep := Report{Level: lvl}

	// appendOf[key][value] = committed appender; abortedAppends for G1a.
	appendOf := map[history.Key]map[history.Value]int{}
	aborted := map[history.Key]map[history.Value]int{}
	for i := range h.Txns {
		t := &h.Txns[i]
		for _, op := range t.Ops {
			if !op.Append {
				continue
			}
			m := appendOf[op.Key]
			am := aborted[op.Key]
			if m == nil {
				m = map[history.Value]int{}
				appendOf[op.Key] = m
			}
			if am == nil {
				am = map[history.Value]int{}
				aborted[op.Key] = am
			}
			if t.Committed {
				if _, dup := m[op.Value]; dup {
					rep.Reason = fmt.Sprintf("duplicate append of %d to %s", op.Value, op.Key)
					return rep
				}
				m[op.Value] = i
			} else {
				am[op.Value] = i
			}
		}
	}

	// Gather stripped observations and build the per-key version order as
	// the longest observed list; all observations must be prefixes.
	type obs struct {
		txn  int
		key  history.Key
		list []history.Value
	}
	var observations []obs
	longest := map[history.Key][]history.Value{}
	for i := range h.Txns {
		t := &h.Txns[i]
		if !t.Committed {
			continue
		}
		own := map[history.Key][]history.Value{}
		for _, op := range t.Ops {
			if op.Append {
				own[op.Key] = append(own[op.Key], op.Value)
				continue
			}
			list, err := stripOwn(op.List, own[op.Key])
			if err != nil {
				rep.Reason = fmt.Sprintf("T%d read of %s: %v", i, op.Key, err)
				return rep
			}
			// G1a / thin-air on every observed element.
			for _, v := range list {
				if _, ok := appendOf[op.Key][v]; ok {
					continue
				}
				if _, ok := aborted[op.Key][v]; ok {
					rep.Reason = fmt.Sprintf("T%d observed aborted append %d on %s (G1a)", i, v, op.Key)
				} else {
					rep.Reason = fmt.Sprintf("T%d observed unwritten value %d on %s", i, v, op.Key)
				}
				return rep
			}
			observations = append(observations, obs{txn: i, key: op.Key, list: list})
			if len(list) > len(longest[op.Key]) {
				longest[op.Key] = list
			}
		}
	}
	// Prefix compatibility: every observation must be a prefix of the
	// longest list of its key (Elle's "incompatible orders" check).
	for _, o := range observations {
		long := longest[o.key]
		for j, v := range o.list {
			if long[j] != v {
				rep.Reason = fmt.Sprintf("incompatible version orders on %s: %v vs %v", o.key, o.list, long)
				return rep
			}
		}
	}

	// Build the dependency graph.
	g := graph.NewBuilder(len(h.Txns), 0)
	so := func(a, b int) { g.AddEdge(graph.Edge{From: a, To: b, Kind: graph.SO}) }
	for _, ids := range h.Sessions {
		prev := -1
		for _, id := range ids {
			if !h.Txns[id].Committed {
				continue
			}
			if prev >= 0 {
				so(prev, id)
			}
			prev = id
		}
	}
	// WW along each version order. Keys and values are walked sorted, so
	// edges arrive in one order every run and the cycle search reports
	// one witness.
	for _, k := range slices.Sorted(maps.Keys(longest)) {
		order := longest[k]
		for j, v := range order {
			if j > 0 {
				a, b := appendOf[k][order[j-1]], appendOf[k][v]
				if a != b {
					g.AddEdge(graph.Edge{From: a, To: b, Kind: graph.WW, Obj: string(k)})
				}
			}
		}
	}
	// Committed appends never observed by any read still occupy positions
	// after the longest observed prefix (the prefix was read, so they
	// cannot precede it): they are WW-after the last observed appender,
	// and full-prefix readers anti-depend on them.
	unobserved := map[history.Key][]int{}
	for _, k := range slices.Sorted(maps.Keys(appendOf)) {
		m := appendOf[k]
		inPrefix := map[history.Value]bool{}
		for _, v := range longest[k] {
			inPrefix[v] = true
		}
		for _, v := range slices.Sorted(maps.Keys(m)) {
			if !inPrefix[v] {
				unobserved[k] = append(unobserved[k], m[v])
			}
		}
		if order := longest[k]; len(order) > 0 {
			last := appendOf[k][order[len(order)-1]]
			for _, w := range unobserved[k] {
				if w != last {
					g.AddEdge(graph.Edge{From: last, To: w, Kind: graph.WW, Obj: string(k)})
				}
			}
		}
	}

	for _, o := range observations {
		order := longest[o.key]
		if len(o.list) > 0 {
			last := o.list[len(o.list)-1]
			if w := appendOf[o.key][last]; w != o.txn {
				g.AddEdge(graph.Edge{From: w, To: o.txn, Kind: graph.WR, Obj: string(o.key)})
			}
		}
		switch {
		case len(o.list) < len(order):
			// The reader anti-depends on the appender of the next version.
			if next := appendOf[o.key][order[len(o.list)]]; next != o.txn {
				g.AddEdge(graph.Edge{From: o.txn, To: next, Kind: graph.RW, Obj: string(o.key)})
			}
		default:
			// Full-prefix reader: every unobserved append is a later
			// version it anti-depends on.
			for _, w := range unobserved[o.key] {
				if w != o.txn {
					g.AddEdge(graph.Edge{From: o.txn, To: w, Kind: graph.RW, Obj: string(o.key)})
				}
			}
		}
	}

	return cycleCheck(rep, g.Build(), lvl)
}

// stripOwn removes the transaction's own buffered appends from the tail of
// an observed list.
func stripOwn(list, own []history.Value) ([]history.Value, error) {
	if len(own) == 0 {
		return list, nil
	}
	if len(list) < len(own) {
		return nil, fmt.Errorf("own appends missing from read (list %v, own %v)", list, own)
	}
	tail := list[len(list)-len(own):]
	for i, v := range own {
		if tail[i] != v {
			return nil, fmt.Errorf("own appends not a suffix of read (list %v, own %v)", list, own)
		}
	}
	return list[:len(list)-len(own)], nil
}

// cycleCheck applies the level's cycle condition to the dependency graph.
func cycleCheck(rep Report, g *graph.Graph, lvl Level) Report {
	switch lvl {
	case SER:
		if cycle := g.FindCycle(); cycle != nil {
			rep.Reason = "dependency cycle: " + graph.FormatCycle(cycle)
			rep.Cycle = cycle
			return rep
		}
	case SI:
		if cycle, _ := g.FindComposedCycle(); cycle != nil {
			rep.Reason = "SI composition cycle: " + graph.FormatCycle(cycle)
			rep.Cycle = cycle
			return rep
		}
	default:
		panic(fmt.Sprintf("elle: unknown level %q", lvl))
	}
	rep.OK = true
	return rep
}

// CheckRWRegister is Elle's read-write-register mode over an ordinary
// register history: it pre-checks the G1/internal anomalies and then
// searches for cycles over session order, reads-from, and whatever
// write-write order the read-modify-write pattern reveals. Blind writes
// leave the version order unknown, so this mode misses anomalies that
// list-append (or MTC's RMW-only workloads) would catch — the effect
// Figure 13 quantifies.
func CheckRWRegister(h *history.History, lvl Level) Report {
	rep, _ := CheckRWRegisterCtx(context.Background(), history.NewIndex(h), lvl)
	return rep
}

// CheckRWRegisterCtx is CheckRWRegister over a prebuilt index of the
// history, under a context: the dependency graph is Algorithm 1's
// derivation (core.BuildDependencyCtx), which polls ctx between batches
// of transactions, so large histories stop promptly under a deadline.
// The Report is only meaningful when the error is nil.
func CheckRWRegisterCtx(ctx context.Context, ix *history.Index, lvl Level) (Report, error) {
	rep := Report{Level: lvl}
	if as := history.CheckInternalIndexed(ix); len(as) > 0 {
		rep.Reason = as[0].String()
		return rep, nil
	}
	d, err := core.BuildDependencyCtx(ctx, ix)
	if err != nil {
		return Report{}, err
	}
	if lvl == SI && len(d.Divs) > 0 {
		// Two transactions updated the same version: a lost update, which
		// SI forbids regardless of the composition graph. The smallest
		// (writer, key) is the one reported.
		div := slices.MinFunc(d.Divs, func(a, b core.Divergence) int {
			return cmp.Or(cmp.Compare(a.Writer, b.Writer), cmp.Compare(a.Key, b.Key))
		})
		rep.Reason = fmt.Sprintf("diverging updates of T%d on %s (lost update)", div.Writer, div.Key)
		return rep, nil
	}
	return cycleCheck(rep, d.Graph, lvl), nil
}
