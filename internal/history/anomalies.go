package history

import (
	"encoding/json"
	"fmt"
)

// AnomalyKind enumerates the intra-transactional and G1 anomalies that the
// MTC pipeline pre-checks before building the dependency graph (footnote 1
// of the paper and Figure 5a-5g).
type AnomalyKind uint8

// The pre-checked anomaly kinds.
const (
	ThinAirRead        AnomalyKind = iota // reads a value nobody wrote
	AbortedRead                           // reads a value written only by an aborted txn (G1a)
	FutureRead                            // reads its own later write
	NotMyLastWrite                        // reads its own earlier, overwritten write
	NotMyOwnWrite                         // reads another txn's value after writing the object
	IntermediateRead                      // reads a non-final write of another txn (G1b)
	NonRepeatableReads                    // two reads of the same object differ
	DuplicateWrite                        // unique-value assumption violated (Definition 9)
	FracturedRead                         // observed part of a writer's update, missed the rest (Read Atomic)
)

// String returns the anomaly's conventional name.
func (k AnomalyKind) String() string {
	switch k {
	case ThinAirRead:
		return "ThinAirRead"
	case AbortedRead:
		return "AbortedRead"
	case FutureRead:
		return "FutureRead"
	case NotMyLastWrite:
		return "NotMyLastWrite"
	case NotMyOwnWrite:
		return "NotMyOwnWrite"
	case IntermediateRead:
		return "IntermediateRead"
	case NonRepeatableReads:
		return "NonRepeatableReads"
	case DuplicateWrite:
		return "DuplicateWrite"
	case FracturedRead:
		return "FracturedRead"
	default:
		return fmt.Sprintf("AnomalyKind(%d)", uint8(k))
	}
}

// ParseAnomalyKind maps a conventional anomaly name back to its kind.
func ParseAnomalyKind(s string) (AnomalyKind, error) {
	for k := ThinAirRead; k <= FracturedRead; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("history: unknown anomaly kind %q", s)
}

// MarshalJSON serializes the kind as its conventional name, so anomaly
// lists in API responses read "AbortedRead" rather than opaque integers.
func (k AnomalyKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON parses the conventional name form written by MarshalJSON.
func (k *AnomalyKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := ParseAnomalyKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// Anomaly is one detected pre-check violation.
type Anomaly struct {
	Kind  AnomalyKind `json:"kind"`
	Txn   int         `json:"txn"` // offending transaction ID
	Key   Key         `json:"key"`
	Value Value       `json:"value"`
}

// String renders the anomaly with its location.
func (a Anomaly) String() string {
	op := "R"
	if a.Kind == DuplicateWrite {
		op = "W"
	}
	return fmt.Sprintf("%s in T%d on %s(%s,%d)", a.Kind, a.Txn, op, a.Key, a.Value)
}

// CheckInternal detects every intra-transactional anomaly (Figure 5c-5g),
// the G1a/G1b external anomalies (AbortedRead, IntermediateRead),
// ThinAirRead, and unique-value violations in the history. A history with
// no reported anomalies satisfies the INT axiom of Section II-D, every
// external read has a unique committed writer, and the unique-value
// assumption holds, so dependency-graph construction is well defined.
//
// Only committed transactions are inspected for read anomalies; writes of
// aborted transactions matter only as AbortedRead sources.
func CheckInternal(h *History) []Anomaly {
	return CheckInternalIndexed(NewIndex(h))
}

// CheckInternalIndexed is CheckInternal over a prebuilt columnar index,
// so one index build serves both the pre-check and graph construction.
// The per-transaction walk classifies each read by scanning the
// transaction's own operations through the index's per-op KeyID column
// (mini-transactions hold at most four operations, and the wide init
// transaction is write-only, so the scans never degenerate) and answers
// every external question — writer, writer's final value, aborted
// writers — from the index: the writer is the resolved-reads column, so
// the pass hashes no key and performs no per-transaction allocation.
func CheckInternalIndexed(ix *Index) []Anomaly {
	h := ix.History()
	var out []Anomaly
	for _, op := range ix.Dups() {
		out = append(out, Anomaly{Kind: DuplicateWrite, Key: op.Key, Value: op.Value, Txn: ix.WriterByName(op.Key, op.Value)})
	}
	pos := 0 // opKey cursor
	for i := range h.Txns {
		ids := ix.opKey[pos : pos+len(h.Txns[i].Ops)]
		pos += len(ids)
		if h.Txns[i].Committed {
			out = checkTxnInternal(ix, i, ids, out)
		}
	}
	return out
}

// writesBefore reports whether ops[:end] writes key k, and the last
// value they wrote to it; ids is the ops' KeyID column.
func writesBefore(ops []Op, ids []KeyID, end int, k KeyID) (last Value, wrote bool) {
	for i := end - 1; i >= 0; i-- {
		if ops[i].Kind == OpWrite && ids[i] == k {
			return ops[i].Value, true
		}
	}
	return 0, false
}

// checkTxnInternal walks transaction t's operations in program order,
// classifying each read, and appends the anomalies found to out. ids is
// the operations' KeyID column.
func checkTxnInternal(ix *Index, t int, ids []KeyID, out []Anomaly) []Anomaly {
	txn := &ix.h.Txns[t]
	ops := txn.Ops
	for i, op := range ops {
		if op.Kind != OpRead {
			continue
		}
		k := ids[i]
		if v, wrote := writesBefore(ops, ids, i, k); wrote {
			// The transaction has already written the object: INT
			// requires the read to return the last such write.
			if op.Value == v {
				continue
			}
			mine := false
			for j := 0; j < i; j++ {
				if ops[j].Kind == OpWrite && ids[j] == k && ops[j].Value == op.Value {
					mine = true
					break
				}
			}
			if mine {
				out = append(out, Anomaly{Kind: NotMyLastWrite, Txn: txn.ID, Key: op.Key, Value: op.Value})
			} else {
				out = append(out, Anomaly{Kind: NotMyOwnWrite, Txn: txn.ID, Key: op.Key, Value: op.Value})
			}
			continue
		}
		// External read (no own write yet). Repeated external reads of
		// the same object must agree; only the first is classified. Any
		// earlier read of the key is necessarily external too (no write
		// to the key precedes this one, hence none precedes it).
		repeated := false
		for j := 0; j < i; j++ {
			if ops[j].Kind == OpRead && ids[j] == k {
				if ops[j].Value != op.Value {
					out = append(out, Anomaly{Kind: NonRepeatableReads, Txn: txn.ID, Key: op.Key, Value: op.Value})
				}
				repeated = true
				break
			}
		}
		if repeated {
			continue
		}
		// A read of a value this transaction writes later is a
		// FutureRead, checked before external matching so that
		// single-transaction histories classify correctly.
		future := false
		for j := i + 1; j < len(ops); j++ {
			if ops[j].Kind == OpWrite && ids[j] == k && ops[j].Value == op.Value {
				future = true
				break
			}
		}
		if future {
			out = append(out, Anomaly{Kind: FutureRead, Txn: txn.ID, Key: op.Key, Value: op.Value})
			continue
		}
		// This is the first external read of k, so it is k's entry in
		// the read footprint, and its writer is resolved already.
		rk := ix.ReadKeys(t)
		writer := int(ix.ReadWriters(t)[searchKey(rk, k)])
		if writer == txn.ID {
			// Reading an own write that already happened is handled by
			// the lastWrite branch; reaching here means the writer
			// index matched this transaction but program order did
			// not, which the FutureRead branch covers. Defensive only.
			continue
		}
		if writer >= 0 {
			// Reads of a non-final value of the writer are G1b.
			if last, ok := ix.WriteVal(writer, k); ok && last != op.Value {
				out = append(out, Anomaly{Kind: IntermediateRead, Txn: txn.ID, Key: op.Key, Value: op.Value})
			}
			continue
		}
		if ix.AbortedWriter(k, op.Value) {
			out = append(out, Anomaly{Kind: AbortedRead, Txn: txn.ID, Key: op.Key, Value: op.Value})
			continue
		}
		out = append(out, Anomaly{Kind: ThinAirRead, Txn: txn.ID, Key: op.Key, Value: op.Value})
	}
	return out
}

// IsMiniTransaction reports whether t meets Definition 8: at most two
// reads, at most two writes, at least one read, and every write preceded
// (not necessarily immediately) by a read of the same object.
func IsMiniTransaction(t *Txn) bool {
	reads, writes := 0, 0
	readKeys := map[Key]bool{}
	for _, op := range t.Ops {
		switch op.Kind {
		case OpRead:
			reads++
			readKeys[op.Key] = true
		case OpWrite:
			writes++
			if !readKeys[op.Key] {
				return false
			}
		}
	}
	return reads >= 1 && reads <= 2 && writes <= 2
}

// ValidateMT checks Definition 9: every transaction except the initial one
// is a mini-transaction, and writes use unique values. It returns a
// descriptive error for the first violation found.
func ValidateMT(h *History) error {
	for i := range h.Txns {
		if h.HasInit && i == 0 {
			continue
		}
		if !h.Txns[i].Committed {
			// Aborted attempts may have been cut short mid-transaction;
			// their shape does not affect verification.
			continue
		}
		if !IsMiniTransaction(&h.Txns[i]) {
			return fmt.Errorf("history: T%d is not a mini-transaction: %s", i, h.Txns[i].String())
		}
	}
	if dups := NewIndex(h).Dups(); len(dups) > 0 {
		return fmt.Errorf("history: duplicate write of (%s,%d) violates unique values", dups[0].Key, dups[0].Value)
	}
	return nil
}
