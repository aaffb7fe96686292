package history

import "sort"

// The map-based twins of the columnar Index, kept as the reference
// implementation index_test.go holds the Index to: Txn.Reads/Writes/
// WritesAll are the paper's T ⊢ R(x,v) / T ⊢ W(x,v) predicates computed
// per call, and WriterIndex is the (key, value) -> writer map the
// pre-columnar pipeline built. Production code reads the Index.

// Reads returns the first external read of each key: the value returned by
// the first read of the key that happens before any write to the key in
// this transaction. This is the T ⊢ R(x,v) predicate of the paper.
func (t *Txn) Reads() map[Key]Value {
	out := make(map[Key]Value)
	written := make(map[Key]bool)
	for _, op := range t.Ops {
		switch op.Kind {
		case OpRead:
			if _, seen := out[op.Key]; !seen && !written[op.Key] {
				out[op.Key] = op.Value
			}
		case OpWrite:
			written[op.Key] = true
		}
	}
	return out
}

// Writes returns the last value written to each key: the T ⊢ W(x,v)
// predicate of the paper.
func (t *Txn) Writes() map[Key]Value {
	out := make(map[Key]Value)
	for _, op := range t.Ops {
		if op.Kind == OpWrite {
			out[op.Key] = op.Value
		}
	}
	return out
}

// WritesAll returns every value this transaction writes per key, in
// program order (needed to detect IntermediateRead).
func (t *Txn) WritesAll() map[Key][]Value {
	out := make(map[Key][]Value)
	for _, op := range t.Ops {
		if op.Kind == OpWrite {
			out[op.Key] = append(out[op.Key], op.Value)
		}
	}
	return out
}

// WriterIndex maps every (key, value) pair written by a committed
// transaction to the writer's ID. The second return value lists (key,
// value) pairs written by more than one committed transaction, i.e.
// violations of the unique-value assumption (Definition 9).
type WriterIndex struct {
	byKV map[Key]map[Value]int
}

// BuildWriterIndex indexes all committed writers. Duplicate writes of the
// same (key, value) by different transactions are reported in dups; the
// index keeps the first writer encountered.
func BuildWriterIndex(h *History) (idx WriterIndex, dups []Op) {
	idx.byKV = make(map[Key]map[Value]int)
	for i := range h.Txns {
		t := &h.Txns[i]
		if !t.Committed {
			continue
		}
		for _, op := range t.Ops {
			if op.Kind != OpWrite {
				continue
			}
			m := idx.byKV[op.Key]
			if m == nil {
				m = make(map[Value]int)
				idx.byKV[op.Key] = m
			}
			if _, ok := m[op.Value]; ok {
				// A second write of the same (key, value) pair anywhere in
				// the history violates the unique-value assumption.
				dups = append(dups, op)
				continue
			}
			m[op.Value] = i
		}
	}
	return idx, dups
}

// Writer returns the committed transaction that wrote value v to key x,
// or -1 if none did.
func (w WriterIndex) Writer(x Key, v Value) int {
	m, ok := w.byKV[x]
	if !ok {
		return -1
	}
	id, ok := m[v]
	if !ok {
		return -1
	}
	return id
}

// WritersOf returns the IDs of committed transactions writing key x in no
// particular order.
func (w WriterIndex) WritersOf(x Key) []int {
	set := map[int]struct{}{}
	//mtc:nondeterministic-ok deduplicating into a set; the result is sorted below
	for _, id := range w.byKV[x] {
		set[id] = struct{}{}
	}
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
