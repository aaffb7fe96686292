package core

import (
	"fmt"
	"sort"

	"mtc/internal/history"
)

// LWTKind distinguishes the two lightweight-transaction shapes of
// Section IV-E.
type LWTKind uint8

// Lightweight-transaction kinds.
const (
	LWTInsert LWTKind = iota // insert-if-not-exists: a pure write of the initial value
	LWTRW                    // read&write: R&W(x, v, v'), a successful compare-and-set
)

// LWT is a lightweight transaction: a single-object operation with a
// real-time interval. For LWTRW, Read is the expected value v and Write
// the new value v'. For LWTInsert, only Write is meaningful.
type LWT struct {
	ID     int
	Key    history.Key
	Kind   LWTKind
	Read   history.Value
	Write  history.Value
	Start  int64
	Finish int64
}

// String renders the operation in the paper's notation.
func (o LWT) String() string {
	if o.Kind == LWTInsert {
		return fmt.Sprintf("O%d:Insert(%s,%d)@[%d,%d]", o.ID, o.Key, o.Write, o.Start, o.Finish)
	}
	return fmt.Sprintf("O%d:R&W(%s,%d,%d)@[%d,%d]", o.ID, o.Key, o.Read, o.Write, o.Start, o.Finish)
}

// LWTResult is the verdict of VLLWT with a reason on rejection.
type LWTResult struct {
	OK     bool
	Key    history.Key // key on which the violation was found
	Reason string
	// Chain is the per-key linearization witness (operation IDs in
	// chain order) when OK; diagnostic aid.
	Chains map[history.Key][]int
}

// VLLWT verifies linearizability (equivalently SSER, Section II-F) of a
// lightweight-transaction history in expected O(n) time, per Algorithm 2.
// Linearizability is local, so the history is partitioned by key and each
// sub-history checked independently.
func VLLWT(ops []LWT) LWTResult {
	byKey := make(map[history.Key][]LWT)
	for _, o := range ops {
		byKey[o.Key] = append(byKey[o.Key], o)
	}
	res := LWTResult{OK: true, Chains: make(map[history.Key][]int, len(byKey))}
	keys := make([]history.Key, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		chain, reason := vlLWTKey(byKey[k])
		if reason != "" {
			return LWTResult{OK: false, Key: k, Reason: reason}
		}
		res.Chains[k] = chain
	}
	return res
}

// vlLWTKey checks the sub-history of a single key. It returns the chain
// witness (operation IDs) or a non-empty rejection reason.
func vlLWTKey(ops []LWT) ([]int, string) {
	// Step 0: exactly one insert-if-not-exists (|WriteTx_x| includes the
	// insert as the only unconditional write).
	inserts := 0
	var head LWT
	byRead := make(map[history.Value][]int, len(ops)) // read value -> op indices
	for i, o := range ops {
		switch o.Kind {
		case LWTInsert:
			inserts++
			head = o
		case LWTRW:
			byRead[o.Read] = append(byRead[o.Read], i)
		}
	}
	if inserts != 1 {
		return nil, fmt.Sprintf("expected exactly one insert, found %d", inserts)
	}

	// Step 1: construct the transaction chain if possible. Each value must
	// be read by exactly one R&W operation (∃! in line 7 of Algorithm 2).
	chain := make([]LWT, 0, len(ops))
	chain = append(chain, head)
	v := head.Write
	remaining := len(ops) - 1
	for remaining > 0 {
		next, ok := byRead[v]
		if !ok || len(next) == 0 {
			return nil, fmt.Sprintf("no R&W reads value %d: chain breaks after %d of %d ops", v, len(chain), len(ops))
		}
		if len(next) > 1 {
			return nil, fmt.Sprintf("value %d read by %d R&W operations (chain not unique)", v, len(next))
		}
		o := ops[next[0]]
		delete(byRead, v)
		chain = append(chain, o)
		v = o.Write
		remaining--
	}

	// Step 2: the real-time requirement. Scanning the chain in reverse, no
	// operation may start after the minimum finish time of its successors.
	minFinish := int64(1<<63 - 1)
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].Start > minFinish {
			return nil, fmt.Sprintf("%s starts after a successor finished (min successor finish %d)", chain[i], minFinish)
		}
		if chain[i].Finish < minFinish {
			minFinish = chain[i].Finish
		}
	}
	ids := make([]int, len(chain))
	for i, o := range chain {
		ids[i] = o.ID
	}
	return ids, ""
}
