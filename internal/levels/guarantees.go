package levels

import (
	"fmt"

	"mtc/internal/history"
)

// sessionGuarantees evaluates the four session guarantees in one walk
// over every session's committed transactions, comparing reads and
// writes against the per-key version forest:
//
//   - RYW: a read of a key the session already wrote must not observe a
//     version strictly older than the session's last write of it.
//   - MR: successive reads of a key must not step back — the newly
//     observed version must not be a strict ancestor of the previously
//     observed one.
//   - MW: a write of a key the session wrote before must not land
//     strictly before the earlier write in version order.
//   - WFR: a write of a key the session read before must not land
//     strictly before the version the session read.
//
// Each guarantee is violated only when the required order is positively
// CONTRADICTED by the version order (the observed/landed version is a
// strict ancestor of the required one). Incomparable versions — blind
// writes the derivation cannot order, or divergent branches — are never
// flagged: blind-write histories get no false positives, and divergence
// is reported at its own rung (SI) rather than smeared over the session
// axis.
func (d *derived) sessionGuarantees() []GuaranteeVerdict {
	f := d.forest()
	ix := d.Index
	h := ix.History()
	out := passedGuarantees()
	ryw, mr, mw, wfr := &out[0], &out[1], &out[2], &out[3]
	fail := func(v *GuaranteeVerdict, sess int, witness string) {
		if v.OK {
			v.OK = false
			v.Session = sess
			v.Witness = witness
		}
	}
	// The two frontiers are reused across sessions (reset clears only the
	// touched keys), and every entry carries its writer slot so frontier
	// comparisons are pure preorder-interval reads — the binary searches
	// happen once per event, not once per comparison.
	nk := ix.NumKeys()
	readFrom := frontier{f: f, byKey: make([][]fentry, nk)}
	wrote := frontier{f: f, byKey: make([][]fentry, nk)}
	for sess, ids := range h.Sessions {
		// Per-key frontiers of the walk: the writers whose versions the
		// session has observed, and the session transactions that wrote
		// the key. A new event must be checked against EVERY prior entry —
		// tracking only the latest would let a transaction's own RMW read
		// of an old version mask the constraint a previous read
		// established — but it suffices to keep the maximal antichain:
		// a version strictly older than any prior entry is strictly older
		// than some maximal one (strict ancestry composes with
		// ancestor-or-equal), so dominated entries can be dropped and the
		// frontiers stay as wide as the key's divergence, usually 1.
		readFrom.reset()
		wrote.reset()
		for _, t := range ids {
			if !h.Txns[t].Committed {
				continue
			}
			rk, rv := ix.Reads(t)
			ws := ix.ReadWriters(t)
			for i, k := range rk {
				w := int(ws[i])
				if w < 0 || w == t {
					continue // own or pre-check-anomalous read
				}
				sw := int32(ix.WriterSlot(k, int32(w)))
				if sw < 0 {
					continue // not a committed writer: incomparable, never flagged
				}
				if tw, bad := wrote.olderThanSome(k, sw, -1); bad {
					fail(ryw, sess, fmt.Sprintf(
						"session %d: T%d reads %s=%d from T%d, older than the session's own write in T%d",
						sess, t, ix.KeyName(k), rv[i], w, tw))
				}
				if rw, bad := readFrom.olderThanSome(k, sw, -1); bad {
					fail(mr, sess, fmt.Sprintf(
						"session %d: T%d reads %s=%d from T%d, older than the version of T%d it read before",
						sess, t, ix.KeyName(k), rv[i], w, rw))
				}
				readFrom.add(k, int32(w), sw)
			}
			wk, _ := ix.Writes(t)
			for _, k := range wk {
				st := int32(ix.WriterSlot(k, int32(t)))
				if st < 0 {
					continue
				}
				if tw, bad := wrote.olderThanSome(k, st, -1); bad {
					fail(mw, sess, fmt.Sprintf(
						"session %d: T%d's write of %s lands before the session's earlier write in T%d",
						sess, t, ix.KeyName(k), tw))
				}
				if rw, bad := readFrom.olderThanSome(k, st, int32(t)); bad {
					fail(wfr, sess, fmt.Sprintf(
						"session %d: T%d's write of %s lands before the version of T%d the session read",
						sess, t, ix.KeyName(k), rw))
				}
				wrote.add(k, int32(t), st)
			}
		}
	}
	return out
}

// passedGuarantees is the all-clear column, in Guarantees() order: what
// the scan starts from, and what a SER pass settles without it.
func passedGuarantees() []GuaranteeVerdict {
	out := make([]GuaranteeVerdict, 0, 4)
	for _, g := range Guarantees() {
		out = append(out, GuaranteeVerdict{Guarantee: g, OK: true, Session: -1})
	}
	return out
}

// fentry is one frontier element: a writer transaction and its dense
// (key, writer) slot in the version forest, precomputed so comparisons
// need no slot lookups.
type fentry struct {
	txn  int32
	slot int32
}

// frontier is a per-key maximal antichain of writer transactions under
// the version-forest order: every writer ever added is ancestor-or-equal
// of some retained element, so strict-ancestor queries over the full
// history of additions reduce to queries over the antichain. Keys index
// a flat slice; reset clears only the keys the last session touched, so
// the backing arrays are reused across sessions.
type frontier struct {
	f       *wwForest
	byKey   [][]fentry
	touched []history.KeyID
}

func (fr *frontier) reset() {
	for _, k := range fr.touched {
		fr.byKey[k] = fr.byKey[k][:0]
	}
	fr.touched = fr.touched[:0]
}

// olderThanSome reports whether the version at slot s is a strict
// ancestor of some frontier element whose transaction is not skipTxn,
// returning that element's transaction.
func (fr *frontier) olderThanSome(k history.KeyID, s, skipTxn int32) (int, bool) {
	for _, m := range fr.byKey[k] {
		if m.txn != skipTxn && s != m.slot && fr.f.slotBefore(s, m.slot) {
			return int(m.txn), true
		}
	}
	return 0, false
}

// add inserts writer txn (at version slot s) into k's frontier, dropping
// dominated entries. Elements the forest cannot order stay side by side,
// so the frontier width is bounded by the key's divergence within one
// session.
func (fr *frontier) add(k history.KeyID, txn, s int32) {
	xs := fr.byKey[k]
	for _, m := range xs {
		if fr.f.slotBefore(s, m.slot) { // ancestor-or-equal: dominated
			return
		}
	}
	if len(xs) == 0 {
		fr.touched = append(fr.touched, k)
	}
	out := xs[:0]
	for _, m := range xs {
		if !fr.f.slotBefore(m.slot, s) { // keep elements s does not dominate
			out = append(out, m)
		}
	}
	fr.byKey[k] = append(out, fentry{txn: txn, slot: s})
}
