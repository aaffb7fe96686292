// Package history defines the client-observable execution model used by
// every checker in this repository: operations, transactions, sessions and
// histories (Definition 1 and 2 of the paper), together with the internal
// consistency (INT) axiom, detection of the intra-transactional and G1
// anomalies that the MTC pipeline pre-checks, mini-transaction validation
// (Definitions 8 and 9), and a JSON codec for saving and loading histories.
package history

import (
	"fmt"
)

// Key identifies an object in the key-value data model.
type Key string

// Value is the value read from or written to an object. Unique-value
// histories never write the same value twice to the same key.
type Value int64

// OpKind distinguishes reads from writes.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
)

// String returns "R" or "W".
func (k OpKind) String() string {
	if k == OpRead {
		return "R"
	}
	return "W"
}

// Op is a single read or write in a transaction, in program order.
type Op struct {
	Kind  OpKind `json:"k"`
	Key   Key    `json:"key"`
	Value Value  `json:"v"`
}

// String renders the operation as R(key,value) or W(key,value).
func (o Op) String() string { return fmt.Sprintf("%s(%s,%d)", o.Kind, o.Key, o.Value) }

// Txn is a transaction: a sequence of operations in program order plus the
// metadata the checkers need (session, real-time interval, commit status).
// ID is the transaction's index in History.Txns.
type Txn struct {
	ID        int   `json:"id"`
	Session   int   `json:"sess"`
	Ops       []Op  `json:"ops"`
	Start     int64 `json:"start"`  // wall-clock start, ns
	Finish    int64 `json:"finish"` // wall-clock finish, ns
	Committed bool  `json:"committed"`
}

// Timed reports whether the transaction takes part in the real-time
// order: it committed and carries a timestamp. It is the one definition
// every real-time consumer shares; CheckTxn rejects Finish < Start, so a
// timed transaction's interval is well-formed.
func (t *Txn) Timed() bool { return t.Committed && (t.Start != 0 || t.Finish != 0) }

// String renders the transaction compactly, e.g. "T3[s0]{R(x,1) W(x,2)}".
func (t *Txn) String() string {
	s := fmt.Sprintf("T%d[s%d]{", t.ID, t.Session)
	for i, op := range t.Ops {
		if i > 0 {
			s += " "
		}
		s += op.String()
	}
	if !t.Committed {
		s += "} (aborted)"
	} else {
		s += "}"
	}
	return s
}

// History is a set of transactions grouped into sessions (Definition 2).
// Txns[i].ID == i always holds. Sessions[s] lists transaction IDs in
// session order, which is ascending id order. If HasInit is true, Txns[0]
// is the special initial transaction ⊥T that installs initial values for
// all objects and precedes every other transaction in session order.
//
// The real-time order RT is derived from the Start/Finish fields:
// T1 -RT-> T2 iff T1.Finish < T2.Start. Histories produced by synthetic
// generators that do not model time leave Start == Finish == 0, which
// yields an empty RT order.
type History struct {
	Txns     []Txn   `json:"txns"`
	Sessions [][]int `json:"sessions"`
	HasInit  bool    `json:"has_init"`
}

// CheckTxn is the per-transaction rule of every door into the checker:
// finish ≥ start, and every op a read or a write. Callers prefix the
// error with the transaction and the door.
func CheckTxn(t *Txn) error {
	if t.Finish < t.Start {
		return fmt.Errorf("finish %d < start %d", t.Finish, t.Start)
	}
	for j := range t.Ops {
		if k := t.Ops[j].Kind; k > OpWrite {
			return fmt.Errorf("op %d has kind %d, neither a read (0) nor a write (1)", j, k)
		}
	}
	return nil
}

// Validate checks structural well-formedness: IDs match indices, every
// transaction passes CheckTxn, sessions reference valid
// committed-or-aborted transactions exactly once and in ascending id
// order (every engine reads session order from either the list or the
// ids, so the two must agree), and the init transaction (when present)
// is Txns[0], committed and write-only.
func (h *History) Validate() error {
	for i := range h.Txns {
		t := &h.Txns[i]
		if t.ID != i {
			return fmt.Errorf("history: Txns[%d].ID = %d, want %d", i, t.ID, i)
		}
		if err := CheckTxn(t); err != nil {
			return fmt.Errorf("history: T%d %w", i, err)
		}
	}
	seen := make([]bool, len(h.Txns))
	for s, ids := range h.Sessions {
		for _, id := range ids {
			if id < 0 || id >= len(h.Txns) {
				return fmt.Errorf("history: session %d references unknown txn %d", s, id)
			}
			if seen[id] {
				return fmt.Errorf("history: txn %d appears in more than one session slot", id)
			}
			seen[id] = true
			if h.Txns[id].Session != s {
				return fmt.Errorf("history: txn %d has Session=%d but listed in session %d", id, h.Txns[id].Session, s)
			}
		}
		for j := 1; j < len(ids); j++ {
			a, b := &h.Txns[ids[j-1]], &h.Txns[ids[j]]
			if a.ID >= b.ID {
				return fmt.Errorf("history: session %d not in id order: T%d listed before T%d", s, a.ID, b.ID)
			}
			if a.Finish != 0 && b.Start != 0 && a.Finish > b.Start {
				return fmt.Errorf("history: session %d not time-ordered: T%d finish %d > T%d start %d", s, a.ID, a.Finish, b.ID, b.Start)
			}
		}
	}
	if h.HasInit {
		if len(h.Txns) == 0 {
			return fmt.Errorf("history: HasInit with no transactions")
		}
		init := &h.Txns[0]
		if !init.Committed {
			return fmt.Errorf("history: init transaction aborted")
		}
		for _, op := range init.Ops {
			if op.Kind != OpWrite {
				return fmt.Errorf("history: init transaction contains a read %v", op)
			}
		}
		if seen[0] {
			return fmt.Errorf("history: init transaction must not belong to a session list")
		}
	}
	for i, ok := range seen {
		if !ok && !(h.HasInit && i == 0) {
			return fmt.Errorf("history: txn %d not in any session", i)
		}
	}
	return nil
}

// SessionOrder invokes fn for every direct session-order edge (a, b):
// consecutive transactions of each session, plus an edge from the init
// transaction to the first transaction of every session when HasInit.
// Only committed transactions participate.
func (h *History) SessionOrder(fn func(a, b int)) {
	for _, ids := range h.Sessions {
		prev := -1
		if h.HasInit {
			prev = 0
		}
		for _, id := range ids {
			if !h.Txns[id].Committed {
				continue
			}
			if prev >= 0 {
				fn(prev, id)
			}
			prev = id
		}
	}
}

// RealTimeOrder invokes fn(a, b) for every pair of timed transactions
// with a.Finish < b.Start. This is the Θ(n²) enumeration the paper's
// CheckSSER uses; here it is the definition the SSER rung's inversion
// pass (core.Deps.Inversion) is tested against.
func (h *History) RealTimeOrder(fn func(a, b int)) {
	for i := range h.Txns {
		a := &h.Txns[i]
		if !a.Timed() {
			continue
		}
		for j := range h.Txns {
			b := &h.Txns[j]
			if i != j && b.Timed() && a.Finish < b.Start {
				fn(i, j)
			}
		}
	}
}
