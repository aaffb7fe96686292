package history

import (
	"fmt"
	"reflect"
	"slices"
)

// legacyPostings is the sort-and-claim postings build the counting-sort
// buildPostings replaced, kept verbatim as its oracle: every committed
// write is comparison-sorted by (key, value), collapsed to unique slots,
// and the slots' writers are claimed by binary-searching each write back
// in op order. It fills the postings and writer-list fields of ix.
func legacyPostings(ix *Index, h *History, opIDs []KeyID) {
	nOps := len(opIDs)
	committed := make([]kvt, 0, nOps/2)
	var aborted []kvt
	pos := 0 // opIDs cursor, aligned with the nested op iteration
	for t := range h.Txns {
		txn := &h.Txns[t]
		for j, op := range txn.Ops {
			if op.Kind != OpWrite {
				continue
			}
			e := kvt{k: opIDs[pos+j], v: op.Value, t: int32(t)}
			if txn.Committed {
				committed = append(committed, e)
			} else {
				aborted = append(aborted, e)
			}
		}
		pos += len(txn.Ops)
	}
	nk := ix.it.Len()

	// Committed postings: sort by (key, value), collapse to unique
	// slots, then claim winners in op order so dups match
	// BuildWriterIndex exactly (first op occurrence wins; a repeated
	// write of the same pair inside one transaction is a dup too).
	sorted := make([]kvt, len(committed))
	copy(sorted, committed)
	slices.SortFunc(sorted, kvt.compare)
	ix.slotOff = make([]int32, nk+1)
	prevK, prevV := KeyID(-1), Value(0)
	for _, e := range sorted {
		if e.k == prevK && e.v == prevV {
			continue // duplicate pair; winner decided below
		}
		prevK, prevV = e.k, e.v
		ix.slotVal = append(ix.slotVal, e.v)
		ix.slotTxn = append(ix.slotTxn, -1)
		ix.slotOff[e.k+1]++
	}
	for k := 0; k < nk; k++ {
		ix.slotOff[k+1] += ix.slotOff[k]
	}
	claimed := make([]bool, len(ix.slotVal))
	for _, e := range committed {
		s := ix.slot(e.k, e.v)
		if !claimed[s] {
			claimed[s] = true
			ix.slotTxn[s] = e.t
		} else {
			ix.dups = append(ix.dups, Op{Kind: OpWrite, Key: ix.it.Name(e.k), Value: e.v})
		}
	}

	// Aborted postings: existence lookups only; last writer wins to
	// mirror CheckInternal's aborted map.
	slices.SortStableFunc(aborted, kvt.compare)
	ix.abOff = make([]int32, nk+1)
	prevK, prevV = KeyID(-1), Value(0)
	for _, e := range aborted {
		if e.k == prevK && e.v == prevV {
			ix.abTxn[len(ix.abTxn)-1] = e.t // stable sort: last duplicate is the latest txn
			continue
		}
		prevK, prevV = e.k, e.v
		ix.abVal = append(ix.abVal, e.v)
		ix.abTxn = append(ix.abTxn, e.t)
		ix.abOff[e.k+1]++
	}
	for k := 0; k < nk; k++ {
		ix.abOff[k+1] += ix.abOff[k]
	}

	// Distinct committed writers per key, ascending.
	ix.writersOff = make([]int32, nk+1)
	scratch := make([]int32, 0, 8)
	for k := 0; k < nk; k++ {
		ix.writersOff[k] = int32(len(ix.writersTxn))
		scratch = scratch[:0]
		for s := ix.slotOff[k]; s < ix.slotOff[k+1]; s++ {
			scratch = append(scratch, ix.slotTxn[s])
		}
		slices.Sort(scratch)
		for i, w := range scratch {
			if i == 0 || scratch[i-1] != w {
				ix.writersTxn = append(ix.writersTxn, w)
			}
		}
	}
	ix.writersOff[nk] = int32(len(ix.writersTxn))
}

// legacyCheckInternal is the string-keyed pre-check the KeyID-column
// checkTxnInternal replaced, kept verbatim as its oracle: every
// operation comparison is a key-string comparison, and each first
// external read hashes its key (KeyIDOf) and binary-searches its writer.
func legacyCheckInternal(ix *Index) []Anomaly {
	h := ix.History()
	var out []Anomaly
	for _, op := range ix.Dups() {
		out = append(out, Anomaly{Kind: DuplicateWrite, Key: op.Key, Value: op.Value, Txn: ix.WriterByName(op.Key, op.Value)})
	}
	for i := range h.Txns {
		t := &h.Txns[i]
		if !t.Committed {
			continue
		}
		out = legacyCheckTxnInternal(ix, t, out)
	}
	return out
}

// legacyWritesBefore reports whether ops[:end] writes key, and the last
// value any of them wrote to it.
func legacyWritesBefore(ops []Op, end int, key Key) (last Value, wrote bool) {
	for i := end - 1; i >= 0; i-- {
		if ops[i].Kind == OpWrite && ops[i].Key == key {
			return ops[i].Value, true
		}
	}
	return 0, false
}

func legacyCheckTxnInternal(ix *Index, t *Txn, out []Anomaly) []Anomaly {
	ops := t.Ops
	for i, op := range ops {
		if op.Kind != OpRead {
			continue
		}
		if v, wrote := legacyWritesBefore(ops, i, op.Key); wrote {
			if op.Value == v {
				continue
			}
			mine := false
			for j := 0; j < i; j++ {
				if ops[j].Kind == OpWrite && ops[j].Key == op.Key && ops[j].Value == op.Value {
					mine = true
					break
				}
			}
			if mine {
				out = append(out, Anomaly{Kind: NotMyLastWrite, Txn: t.ID, Key: op.Key, Value: op.Value})
			} else {
				out = append(out, Anomaly{Kind: NotMyOwnWrite, Txn: t.ID, Key: op.Key, Value: op.Value})
			}
			continue
		}
		repeated := false
		for j := 0; j < i; j++ {
			if ops[j].Kind == OpRead && ops[j].Key == op.Key {
				if ops[j].Value != op.Value {
					out = append(out, Anomaly{Kind: NonRepeatableReads, Txn: t.ID, Key: op.Key, Value: op.Value})
				}
				repeated = true
				break
			}
		}
		if repeated {
			continue
		}
		future := false
		for j := i + 1; j < len(ops); j++ {
			if ops[j].Kind == OpWrite && ops[j].Key == op.Key && ops[j].Value == op.Value {
				future = true
				break
			}
		}
		if future {
			out = append(out, Anomaly{Kind: FutureRead, Txn: t.ID, Key: op.Key, Value: op.Value})
			continue
		}
		kid, known := ix.KeyIDOf(op.Key)
		writer := -1
		if known {
			writer = ix.Writer(kid, op.Value)
		}
		if writer == t.ID {
			continue
		}
		if writer >= 0 {
			if last, ok := ix.WriteVal(writer, kid); ok && last != op.Value {
				out = append(out, Anomaly{Kind: IntermediateRead, Txn: t.ID, Key: op.Key, Value: op.Value})
			}
			continue
		}
		if known && ix.AbortedWriter(kid, op.Value) {
			out = append(out, Anomaly{Kind: AbortedRead, Txn: t.ID, Key: op.Key, Value: op.Value})
			continue
		}
		out = append(out, Anomaly{Kind: ThinAirRead, Txn: t.ID, Key: op.Key, Value: op.Value})
	}
	return out
}

// LegacyMismatch holds ix to the two history-side oracles and returns
// the first difference, or nil. A twin index sharing ix's interner and
// footprints gets its postings from legacyPostings; the postings,
// aborted postings, writer lists and dups must be equal, every resolved
// read must be the twin's Writer of that read, and CheckInternalIndexed
// must DeepEqual legacyCheckInternal over the twin. Exported for the
// external oracle suite (legacy_derive_test.go), which adds the
// derivation oracle.
func LegacyMismatch(ix *Index) error {
	lg := &Index{
		h: ix.h, it: ix.it,
		readKey: ix.readKey, readVal: ix.readVal, readOff: ix.readOff,
		writeKey: ix.writeKey, writeVal: ix.writeVal, writeOff: ix.writeOff,
	}
	legacyPostings(lg, ix.h, ix.opKey)
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"slotVal", ix.slotVal, lg.slotVal},
		{"slotTxn", ix.slotTxn, lg.slotTxn},
		{"slotOff", ix.slotOff, lg.slotOff},
		{"abVal", ix.abVal, lg.abVal},
		{"abTxn", ix.abTxn, lg.abTxn},
		{"abOff", ix.abOff, lg.abOff},
		{"writersTxn", ix.writersTxn, lg.writersTxn},
		{"writersOff", ix.writersOff, lg.writersOff},
		{"dups", ix.dups, lg.dups},
	} {
		g, w := reflect.ValueOf(c.got), reflect.ValueOf(c.want)
		if g.Len() != w.Len() || (g.Len() > 0 && !reflect.DeepEqual(c.got, c.want)) {
			return fmt.Errorf("%s: %v, legacy %v", c.name, c.got, c.want)
		}
	}
	for i, k := range ix.readKey {
		if got, want := int(ix.readTxn[i]), lg.Writer(k, ix.readVal[i]); got != want {
			return fmt.Errorf("read %d (%s=%d): resolved writer %d, legacy Writer %d", i, ix.KeyName(k), ix.readVal[i], got, want)
		}
	}
	if got, want := CheckInternalIndexed(ix), legacyCheckInternal(lg); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("pre-check: %v, legacy %v", got, want)
	}
	return nil
}
