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

// CheckInternalIndexed detects, over a prebuilt columnar index, every
// intra-transactional anomaly (Figure 5c-5g), the G1a/G1b external
// anomalies (AbortedRead, IntermediateRead), ThinAirRead, and unique-value
// violations in the history. A history with no reported anomalies
// satisfies the INT axiom of Section II-D, every external read has a
// unique committed writer, and the unique-value assumption holds, so
// dependency-graph construction is well defined; one index build serves
// both the pre-check and graph construction.
//
// Only committed transactions are inspected for read anomalies; writes of
// aborted transactions matter only as AbortedRead sources.
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

// checkTxnInternal classifies each read of transaction t with
// ClassifyRead and appends the anomalies found to out. A first external
// read is answered from the index — its writer is the resolved-reads
// column, the writer's final value and the aborted writers are postings
// lookups — so the pass hashes no key and allocates nothing per
// transaction. ids is the operations' KeyID column.
func checkTxnInternal(ix *Index, t int, ids []KeyID, out []Anomaly) []Anomaly {
	txn := &ix.h.Txns[t]
	for i, op := range txn.Ops {
		if op.Kind != OpRead {
			continue
		}
		class, kind := ClassifyRead(txn.Ops, i)
		if class == OwnRead {
			continue
		}
		if class == ExternalRead {
			// The first external read of k is k's entry in the read
			// footprint.
			k := ids[i]
			switch w := int(ix.ReadWriters(t)[searchKey(ix.ReadKeys(t), k)]); {
			case w >= 0:
				if last, ok := ix.WriteVal(w, k); !ok || last == op.Value {
					continue
				}
				kind = IntermediateRead // a non-final value of its writer: G1b
			case ix.AbortedWriter(k, op.Value):
				kind = AbortedRead
			default:
				kind = ThinAirRead
			}
		}
		out = append(out, Anomaly{Kind: kind, Txn: txn.ID, Key: op.Key, Value: op.Value})
	}
	return out
}

// ReadClass is what a read's own transaction decides about it.
type ReadClass uint8

// The outcomes of ClassifyRead.
const (
	// ExternalRead is the first read of its key, with no own write before
	// it: the caller resolves its writer.
	ExternalRead ReadClass = iota
	// OwnRead is answered inside the transaction, by the last own write
	// or an earlier read of the key, so the caller skips it.
	OwnRead
	// AnomalousRead breaks the INT axiom; the kind says how.
	AnomalousRead
)

// ClassifyRead decides the INT axiom (Figure 5c-5g) for the read ops[i]
// against the operations of its own transaction, in program order:
//   - after an own write to the key, the read must return the last one;
//     an earlier own value is NotMyLastWrite, any other NotMyOwnWrite;
//   - otherwise a repeated read of the key must return what the first
//     read of it did, or it is NonRepeatableReads;
//   - otherwise a read of a value the transaction writes to the key
//     later is FutureRead;
//   - what is left is the key's first external read.
//
// The kind is meaningful only for AnomalousRead. Operations are matched
// by key name; the scans stay within one transaction, at most four
// operations in a mini-transaction, and the wide ⊥T is write-only.
//
// It is the one classifier: the batch pre-check (CheckInternalIndexed)
// and the online checker (core.Incremental) both call it and differ only
// in how they resolve an external read. A mutation here therefore moves
// both engines together, and no batch-versus-online differential can see
// it: the legacy pre-check oracle in legacy_test.go guards the batch
// side, and the mtc-incremental rows of reports.golden and
// corpus.digests (internal/checker) guard the online one.
//
//mtc:hotpath — per read, in the batch pre-check and per online commit
func ClassifyRead(ops []Op, i int) (ReadClass, AnomalyKind) {
	r := ops[i]
	wrote, mine, first := false, false, -1
	var last Value
	for j, op := range ops[:i] {
		switch {
		case op.Key != r.Key:
		case op.Kind == OpWrite:
			wrote, last = true, op.Value
			mine = mine || op.Value == r.Value
		case first < 0:
			first = j
		}
	}
	switch {
	case wrote && last == r.Value:
		return OwnRead, 0
	case wrote && mine:
		return AnomalousRead, NotMyLastWrite
	case wrote:
		return AnomalousRead, NotMyOwnWrite
	case first >= 0 && ops[first].Value != r.Value:
		return AnomalousRead, NonRepeatableReads
	case first >= 0:
		return OwnRead, 0
	}
	for _, op := range ops[i+1:] {
		if op.Value == r.Value && op.Kind == OpWrite && op.Key == r.Key {
			return AnomalousRead, FutureRead
		}
	}
	return ExternalRead, 0
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
