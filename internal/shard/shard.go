// Package shard decomposes a history into key/session-disjoint connected
// components and checks them independently — the one concurrency knob
// of this repository, above every verification engine (the engines
// themselves run serially).
//
// The decomposition invariant: two transactions land in the same
// component iff they are connected through shared keys or shared
// sessions. Every dependency edge the checkers derive — SO (same
// session), WR/WW/RW (same key), and the reads-from matching behind them
// — therefore stays inside one component, so a violation cycle can never
// cross components and the conjunction of per-component verdicts equals
// the whole-history verdict. (For SSER the real-time order does cross
// components, but strict serializability composes over disjoint key sets
// — the locality argument of linearizability — so the conjunction is
// still exact: an SSER witness is a dependency path closed by one RT
// edge, inside one component.)
//
// The initial transaction ⊥T touches every key and would glue everything
// into one component, so it is replicated instead: each component gets
// its own init transaction writing only the keys that component touches,
// which preserves both the init's session-order edges and its per-key
// write chains.
//
// Multi-tenant and per-user workloads decompose into one component per
// tenant; a workload whose keys are all shared degenerates to a single
// component, and checking then falls back to the plain engine (see
// docs/sharding.md).
package shard

import (
	"sort"

	"mtc/internal/graph"
	"mtc/internal/history"
)

// Component is one connected component of a decomposed history: a
// self-contained sub-history with densely renumbered transaction ids and
// the translation back to the source history's ids.
type Component struct {
	// H is the component's sub-history. Transaction ids are local
	// (dense, 0-based); Ext translates them back.
	H *history.History
	// Ext maps local transaction ids to external ids in the source
	// history. When the source has an init transaction, Ext[0] == 0: the
	// component's replicated init stands for the source's ⊥T.
	Ext []int
}

// ExtOf translates a local transaction id to its id in the source
// history. Ids outside the component (defensive) map to themselves.
func (c *Component) ExtOf(local int) int {
	if local >= 0 && local < len(c.Ext) {
		return c.Ext[local]
	}
	return local
}

// sourceSession translates a local session index to the session of src,
// the history the component was split from. -1 and any index the
// component does not hold (a worker's report is not trusted) map to -1.
func (c *Component) sourceSession(src *history.History, local int) int {
	if local < 0 || local >= len(c.H.Sessions) || len(c.H.Sessions[local]) == 0 {
		return -1
	}
	return src.Txns[c.ExtOf(c.H.Sessions[local][0])].Session
}

// Partition is the component decomposition of one history.
type Partition struct {
	// Source is the history that was decomposed.
	Source *history.History
	// Components lists the connected components ordered by their
	// smallest external transaction id (deterministic for a given
	// history). A history whose transactions are all connected yields
	// exactly one component.
	Components []Component
}

// Split partitions h into its connected components. Sessions are the
// union-find seeds: every transaction (committed or aborted — aborted
// writers matter for G1a) unions its session with every key it touches,
// so sessions sharing a key coalesce. The init transaction is excluded
// from the union (it touches all keys) and replicated per component
// instead. Sessions without transactions contribute nothing.
//
// Split never mutates h; component sub-histories share the source's Op
// slices (per-transaction metadata is copied, operations are not).
func Split(h *history.History) *Partition {
	nSess := len(h.Sessions)
	u := graph.NewUnionFind(nSess)
	// Keys are interned to dense first-seen ids, which line up with the
	// union-find elements grown past the session seeds: key id k is
	// element nSess+k.
	it := history.NewInterner()
	firstTxn := 0
	if h.HasInit {
		firstTxn = 1
	}
	for i := firstTxn; i < len(h.Txns); i++ {
		t := &h.Txns[i]
		if t.Session < 0 || t.Session >= nSess {
			continue // defensively skip txns outside the session table
		}
		for _, op := range t.Ops {
			before := it.Len()
			kid := it.Intern(op.Key)
			if it.Len() > before {
				u.Grow()
			}
			u.Union(t.Session, nSess+int(kid))
		}
	}

	// Group non-empty sessions by root.
	bySess := make(map[int][]int) // root -> session indices (ascending)
	for s := 0; s < nSess; s++ {
		if len(h.Sessions[s]) == 0 {
			continue
		}
		r := u.Find(s)
		bySess[r] = append(bySess[r], s)
	}

	p := &Partition{Source: h}

	// Deterministic component order: by the smallest external txn id.
	type group struct {
		sessions []int
		minTxn   int
	}
	groups := make([]group, 0, len(bySess))
	for _, sessions := range bySess {
		min := len(h.Txns)
		for _, s := range sessions {
			for _, id := range h.Sessions[s] {
				if id < min {
					min = id
				}
			}
		}
		groups = append(groups, group{sessions: sessions, minTxn: min})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].minTxn < groups[j].minTxn })

	for _, g := range groups {
		p.Components = append(p.Components, p.build(g.sessions))
	}
	return p
}

// build assembles the sub-history of one session group.
func (p *Partition) build(sessions []int) Component {
	h := p.Source

	// External ids of the component's transactions, ascending. Session
	// lists are already ascending per session, so a merge of sorted lists
	// would do; a sort keeps it simple.
	var ext []int
	for _, s := range sessions {
		ext = append(ext, h.Sessions[s]...)
	}
	sort.Ints(ext)

	// Keys the component touches, for the replicated init.
	keys := make(map[history.Key]bool)
	for _, id := range ext {
		for _, op := range h.Txns[id].Ops {
			keys[op.Key] = true
		}
	}

	sub := &history.History{}
	var extMap []int
	if h.HasInit {
		// Replicated ⊥T: only the ops whose key this component touches,
		// in the source init's op order (preserving per-key write chains
		// and the init's session-order edges).
		init := h.Txns[0]
		var ops []history.Op
		for _, op := range init.Ops {
			if keys[op.Key] {
				ops = append(ops, op)
			}
		}
		sub.HasInit = true
		sub.Txns = append(sub.Txns, history.Txn{
			ID: 0, Session: -1, Ops: ops,
			Start: init.Start, Finish: init.Finish, Committed: init.Committed,
		})
		extMap = append(extMap, 0)
	}

	sessMap := make(map[int]int, len(sessions))
	for li, s := range sessions {
		sessMap[s] = li
	}
	sub.Sessions = make([][]int, len(sessions))
	for _, id := range ext {
		t := h.Txns[id]
		local := len(sub.Txns)
		ls := sessMap[t.Session]
		sub.Txns = append(sub.Txns, history.Txn{
			ID: local, Session: ls, Ops: t.Ops,
			Start: t.Start, Finish: t.Finish, Committed: t.Committed,
		})
		sub.Sessions[ls] = append(sub.Sessions[ls], local)
		extMap = append(extMap, id)
	}
	return Component{H: sub, Ext: extMap}
}
