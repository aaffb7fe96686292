package history

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// randomHistory builds an adversarial random history: duplicate writes,
// repeated reads, read-after-own-write, write-write chains on one key,
// aborted transactions, and an optional init transaction — everything
// the columnar index must reproduce bit-identically to the map-based
// accessors.
func randomHistory(rng *rand.Rand) *History {
	nKeys := 1 + rng.Intn(12)
	keys := make([]Key, nKeys)
	for i := range keys {
		// Unsorted, collision-prone names so interning has to re-rank.
		keys[i] = Key(fmt.Sprintf("k%c%d", 'a'+rng.Intn(4), rng.Intn(9)))
	}
	h := &History{}
	if rng.Intn(2) == 0 {
		ops := make([]Op, 0, nKeys)
		seen := map[Key]bool{}
		for _, k := range keys {
			if !seen[k] {
				seen[k] = true
				ops = append(ops, Op{Kind: OpWrite, Key: k, Value: 0})
			}
		}
		h.HasInit = true
		h.Txns = append(h.Txns, Txn{ID: 0, Session: -1, Ops: ops, Committed: true})
	}
	nSess := 1 + rng.Intn(4)
	h.Sessions = make([][]int, nSess)
	nTxn := 1 + rng.Intn(30)
	for i := 0; i < nTxn; i++ {
		id := len(h.Txns)
		s := rng.Intn(nSess)
		nOps := 1 + rng.Intn(5)
		ops := make([]Op, nOps)
		for j := range ops {
			op := Op{Key: keys[rng.Intn(nKeys)], Value: Value(rng.Intn(20))}
			if rng.Intn(2) == 0 {
				op.Kind = OpWrite
			}
			ops[j] = op
		}
		h.Txns = append(h.Txns, Txn{ID: id, Session: s, Ops: ops, Committed: rng.Intn(5) != 0})
		h.Sessions[s] = append(h.Sessions[s], id)
	}
	return h
}

// TestIndexEquivalence pins the columnar index to the map-based
// accessors on randomized histories: footprints, writer lookups, dups,
// writers-of, and aborted postings must all agree.
func TestIndexEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 250; trial++ {
		h := randomHistory(rng)
		ix := NewIndex(h)
		widx, dups := BuildWriterIndex(h)

		// Key universe: sorted, dense, lexicographic.
		wantKeys := historyKeys(h)
		if ix.NumKeys() != len(wantKeys) {
			t.Fatalf("trial %d: %d keys, want %d", trial, ix.NumKeys(), len(wantKeys))
		}
		for i, k := range wantKeys {
			id, ok := ix.KeyIDOf(k)
			if !ok || int(id) != i || ix.KeyName(id) != k {
				t.Fatalf("trial %d: interning of %q broken (id %d ok %v)", trial, k, id, ok)
			}
		}

		for ti := range h.Txns {
			txn := &h.Txns[ti]
			rk, rv := ix.Reads(ti)
			wk, wv := ix.Writes(ti)
			if !txn.Committed {
				if len(rk) != 0 || len(wk) != 0 {
					t.Fatalf("trial %d txn %d: aborted txn has non-empty footprint", trial, ti)
				}
				continue
			}
			wantR, wantW := txn.Reads(), txn.Writes()
			if len(rk) != len(wantR) || len(wk) != len(wantW) {
				t.Fatalf("trial %d txn %d: footprint sizes (%d,%d), want (%d,%d)",
					trial, ti, len(rk), len(wk), len(wantR), len(wantW))
			}
			if !sort.SliceIsSorted(rk, func(i, j int) bool { return rk[i] < rk[j] }) ||
				!sort.SliceIsSorted(wk, func(i, j int) bool { return wk[i] < wk[j] }) {
				t.Fatalf("trial %d txn %d: footprint columns not sorted", trial, ti)
			}
			for i, k := range rk {
				if v, ok := wantR[ix.KeyName(k)]; !ok || v != rv[i] {
					t.Fatalf("trial %d txn %d: read (%s,%d) disagrees with Reads() (%d,%v)",
						trial, ti, ix.KeyName(k), rv[i], v, ok)
				}
			}
			for i, k := range wk {
				if v, ok := wantW[ix.KeyName(k)]; !ok || v != wv[i] {
					t.Fatalf("trial %d txn %d: write (%s,%d) disagrees with Writes() (%d,%v)",
						trial, ti, ix.KeyName(k), wv[i], v, ok)
				}
			}
			for k, v := range wantW {
				id, _ := ix.KeyIDOf(k)
				if got, ok := ix.WriteVal(ti, id); !ok || got != v {
					t.Fatalf("trial %d txn %d: WriteVal(%s) = (%d,%v), want (%d,true)", trial, ti, k, got, ok, v)
				}
			}
		}

		// Writer postings vs WriterIndex, probing every (key, value) in a
		// generous grid plus every actually-written pair.
		for _, k := range wantKeys {
			id, _ := ix.KeyIDOf(k)
			for v := Value(-1); v < 21; v++ {
				if got, want := ix.Writer(id, v), widx.Writer(k, v); got != want {
					t.Fatalf("trial %d: Writer(%s,%d) = %d, want %d", trial, k, v, got, want)
				}
				if got, want := ix.WriterByName(k, v), widx.Writer(k, v); got != want {
					t.Fatalf("trial %d: WriterByName(%s,%d) = %d, want %d", trial, k, v, got, want)
				}
			}
			wo := ix.WritersOf(id)
			want := widx.WritersOf(k)
			if len(wo) != len(want) {
				t.Fatalf("trial %d: WritersOf(%s) len %d, want %d", trial, k, len(wo), len(want))
			}
			for i := range wo {
				if int(wo[i]) != want[i] {
					t.Fatalf("trial %d: WritersOf(%s)[%d] = %d, want %d", trial, k, i, wo[i], want[i])
				}
			}
		}
		if got, _ := ix.KeyIDOf(Key("no-such-key")); got != 0 {
			// Lookup miss must report ok=false; id value is unspecified but
			// the miss itself is what WriterByName relies on.
			if _, ok := ix.KeyIDOf(Key("no-such-key")); ok {
				t.Fatalf("trial %d: phantom key interned", trial)
			}
		}
		if ix.WriterByName(Key("no-such-key"), 0) != -1 {
			t.Fatalf("trial %d: writer for unknown key", trial)
		}

		// Duplicate-write reports: identical ops in identical order.
		gotDups := ix.Dups()
		if len(gotDups) != len(dups) {
			t.Fatalf("trial %d: %d dups, want %d", trial, len(gotDups), len(dups))
		}
		for i := range dups {
			if gotDups[i] != dups[i] {
				t.Fatalf("trial %d: dup[%d] = %v, want %v", trial, i, gotDups[i], dups[i])
			}
		}

		// Aborted postings vs a reference map.
		abort := map[Key]map[Value]bool{}
		for i := range h.Txns {
			txn := &h.Txns[i]
			if txn.Committed {
				continue
			}
			for _, op := range txn.Ops {
				if op.Kind != OpWrite {
					continue
				}
				if abort[op.Key] == nil {
					abort[op.Key] = map[Value]bool{}
				}
				abort[op.Key][op.Value] = true
			}
		}
		for _, k := range wantKeys {
			id, _ := ix.KeyIDOf(k)
			for v := Value(-1); v < 21; v++ {
				if got, want := ix.AbortedWriter(id, v), abort[k][v]; got != want {
					t.Fatalf("trial %d: AbortedWriter(%s,%d) = %v, want %v", trial, k, v, got, want)
				}
			}
		}
	}
}

// TestFingerSearchMatchesSlot holds resolveReads' finger search to
// slot's binary search: per-key values written ascending, descending and
// shuffled, read in every order, present and absent alike. Every read's
// resolved writer must be Writer's, and fingerSearch from every start in
// a key's segment must land where slot's search does.
func TestFingerSearchMatchesSlot(t *testing.T) {
	for _, order := range []string{"ascending", "descending", "shuffled"} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			nKeys, perKey := 1+rng.Intn(5), 1+rng.Intn(40)
			vals := make([]Value, perKey)
			for i := range vals {
				vals[i] = Value(3 * (i + 1)) // gaps: a value between two slots has no writer
			}
			switch order {
			case "descending":
				slices.Reverse(vals)
			case "shuffled":
				rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			}
			b := NewBuilder()
			for k := 0; k < nKeys; k++ {
				for _, v := range vals {
					b.Txn(k, W(Key(fmt.Sprintf("k%d", k)), v))
				}
			}
			for r := 0; r < 4*nKeys*perKey; r++ {
				k := Key(fmt.Sprintf("k%d", rng.Intn(nKeys)))
				b.Txn(nKeys, R(k, Value(rng.Intn(3*perKey+5))))
			}
			ix := NewIndex(b.Build())
			for ti := 0; ti < ix.NumTxns(); ti++ {
				keys, vs := ix.Reads(ti)
				for i, w := range ix.ReadWriters(ti) {
					if want := ix.Writer(keys[i], vs[i]); int(w) != want {
						t.Fatalf("%s seed %d: txn %d reads (%s, %d): writer %d, slot says %d",
							order, seed, ti, ix.KeyName(keys[i]), vs[i], w, want)
					}
				}
			}
			for k := KeyID(0); int(k) < ix.NumKeys(); k++ {
				lo, hi := ix.slotOff[k], ix.slotOff[k+1]
				for v := Value(-1); v <= Value(3*perKey+4); v++ {
					want := ix.lowerBound(lo, hi, v)
					for at := lo; at <= hi; at++ {
						if got := ix.fingerSearch(k, v, at); got != want {
							t.Fatalf("%s seed %d: fingerSearch(%d, %d, from %d) = %d, want %d",
								order, seed, k, v, at, got, want)
						}
					}
				}
			}
		}
	}
}
