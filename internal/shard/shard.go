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
	"fmt"

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

	col *column // the key column the split interned
}

// column is the key column of a split history: Split's union-find runs
// over it, and each component's index and encoding are cut from it, so
// a sharded check or a distributed job interns every key once.
type column struct {
	names []string        // key names by source key id, in first-seen order
	opKey []history.KeyID // one id per op of the source, in transaction-then-program order
	off   []int           // off[t] is transaction t's first position in opKey
	owner []int           // key id -> the component whose transactions touch it, or -1
	// local maps a key id to its component-local id plus one (0: not yet
	// numbered). Components own disjoint keys, so one table serves all
	// of them, concurrently.
	local []history.KeyID
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
	names, opKey := history.KeyColumn(h)
	col := &column{names: names, opKey: opKey, off: make([]int, len(h.Txns)+1)}
	nSess := len(h.Sessions)
	// member is the session transaction i unions through, or -1 for the
	// init transaction and (defensively) any txn outside the session table.
	member := func(i int) int {
		if s := h.Txns[i].Session; s >= 0 && s < nSess && (i > 0 || !h.HasInit) {
			return s
		}
		return -1
	}
	u := graph.NewUnionFind(nSess + len(names)) // key id k is element nSess+k
	for i := range h.Txns {
		at := col.off[i]
		col.off[i+1] = at + len(h.Txns[i].Ops)
		if s := member(i); s >= 0 {
			for _, k := range opKey[at:col.off[i+1]] {
				u.Union(s, nSess+int(k))
			}
		}
	}

	// Components are numbered by their smallest transaction id and sized
	// in the same pass; comp maps a union-find root to its number plus one.
	p := &Partition{Source: h, col: col}
	comp := make([]int, nSess+len(names))
	var sizes []int
	for i := range h.Txns {
		if s := member(i); s >= 0 {
			r := u.Find(s)
			if comp[r] == 0 {
				sizes = append(sizes, 0)
				comp[r] = len(sizes)
			}
			sizes[comp[r]-1]++
		}
	}
	p.Components = make([]Component, len(sizes))
	for c, n := range sizes {
		sub := &history.History{HasInit: h.HasInit, Txns: make([]history.Txn, 0, n+1)}
		p.Components[c] = Component{H: sub, Ext: make([]int, 0, n+1)}
	}
	col.owner = make([]int, len(names))
	col.local = make([]history.KeyID, len(names))
	for k := range col.owner {
		col.owner[k] = comp[u.Find(nSess+k)] - 1
	}
	if h.HasInit {
		// Replicated ⊥T: only the ops whose key this component touches,
		// in the source init's op order (preserving per-key write chains
		// and the init's session-order edges).
		init := h.Txns[0]
		for c := range p.Components {
			sub := p.Components[c].H
			sub.Txns = append(sub.Txns, history.Txn{
				ID: 0, Session: -1,
				Start: init.Start, Finish: init.Finish, Committed: init.Committed,
			})
			p.Components[c].Ext = append(p.Components[c].Ext, 0)
		}
		for j, op := range init.Ops {
			if c := col.owner[opKey[j]]; c >= 0 {
				t := &p.Components[c].H.Txns[0]
				t.Ops = append(t.Ops, op)
			}
		}
	}

	// Local sessions in source session order, then local transactions in
	// source id order.
	localSess := make([]int, nSess)
	for s := range h.Sessions {
		if c := comp[u.Find(s)] - 1; c >= 0 {
			sub := p.Components[c].H
			localSess[s] = len(sub.Sessions)
			sub.Sessions = append(sub.Sessions, make([]int, 0, len(h.Sessions[s])))
		}
	}
	for i := range h.Txns {
		s := member(i)
		if s < 0 {
			continue
		}
		c := &p.Components[comp[u.Find(s)]-1]
		t := &h.Txns[i]
		id, ls := len(c.H.Txns), localSess[s]
		c.H.Txns = append(c.H.Txns, history.Txn{
			ID: id, Session: ls, Ops: t.Ops,
			Start: t.Start, Finish: t.Finish, Committed: t.Committed,
		})
		c.H.Sessions[ls] = append(c.H.Sessions[ls], id)
		c.Ext = append(c.Ext, i)
	}
	return p
}

// SourceMTCB returns the source history as one MTCB document, byte for
// byte what history.WriteMTCB writes, encoded from the key column the
// split interned.
func (p *Partition) SourceMTCB() ([]byte, error) {
	return history.AppendMTCB(nil, p.Source, p.col.names, p.col.opKey)
}

// ComponentMTCB returns component i's sub-history as one MTCB document,
// byte for byte what history.WriteMTCB writes, encoded from the key
// column cut as Check cuts the component's index. Split numbers a
// component's transactions densely, from local session 0 and with the
// replicated ⊥T first, so the encoding cannot fail.
func (p *Partition) ComponentMTCB(i int) []byte {
	c := &p.Components[i]
	names, opKey := p.col.cut(i, c)
	b, err := history.AppendMTCB(nil, c.H, names, opKey)
	if err != nil {
		panic(fmt.Sprintf("shard: component %d: %v", i, err))
	}
	return b
}

// index builds component c's index from the source key column: cut,
// then IndexColumns, so the result equals history.NewIndex(comp.H).
func (col *column) index(c int, comp *Component) *history.Index {
	names, opKey := col.cut(c, comp)
	return history.IndexColumns(comp.H, names, opKey)
}

// cut is component c's key column, shaped like history.KeyColumn(comp.H):
// the component numbers its keys densely in first-touch order. It writes
// only the col.local entries of keys c owns, so the components of one
// split can be cut concurrently, and a repeated cut of c finds the
// numbers the first one wrote and returns the same column.
func (col *column) cut(c int, comp *Component) (names []string, opKey []history.KeyID) {
	nOps := 0
	for i := range comp.H.Txns {
		nOps += len(comp.H.Txns[i].Ops)
	}
	opKey = make([]history.KeyID, 0, nOps)
	for _, ext := range comp.Ext {
		for _, k := range col.opKey[col.off[ext]:col.off[ext+1]] {
			if col.owner[k] != c {
				continue // a replicated ⊥T op of another component's key
			}
			if col.local[k] == 0 {
				col.local[k] = history.KeyID(len(names) + 1)
			}
			if int(col.local[k]) > len(names) { // the key's first touch
				names = append(names, col.names[k])
			}
			opKey = append(opKey, col.local[k]-1)
		}
	}
	return names, opKey
}
