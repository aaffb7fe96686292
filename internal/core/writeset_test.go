package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mtc/internal/graph"
	"mtc/internal/history"
)

// quadraticWriteSet is makeWriteSet as it was: a linear probe per write
// for the last-wins dedup, then an insertion sort. Kept as the oracle.
func quadraticWriteSet(ops []history.Op) writeSet {
	var ws writeSet
	for _, op := range ops {
		if op.Kind != history.OpWrite {
			continue
		}
		found := false
		for i := range ws {
			if ws[i].k == op.Key {
				ws[i].v = op.Value // last write wins
				found = true
				break
			}
		}
		if !found {
			ws = append(ws, write{op.Key, op.Value})
		}
	}
	for i := 1; i < len(ws); i++ {
		e := ws[i]
		j := i - 1
		for j >= 0 && ws[j].k > e.k {
			ws[j+1] = ws[j]
			j--
		}
		ws[j+1] = e
	}
	return ws
}

// TestMakeWriteSetMatchesQuadraticLoop: 0 to 40 writes over few enough
// keys that most are written twice or more, reads interleaved — the
// sorted, last-wins write set is the one the old loop built. One slab
// serves every list, so the sets are also checked not to overlap.
func TestMakeWriteSetMatchesQuadraticLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var (
		slab graph.Slab[write]
		got  []writeSet
		want []writeSet
	)
	for i := 0; i < 2000; i++ {
		var ops []history.Op
		for w, writes := 0, rng.Intn(41); w < writes; {
			key := history.Key(fmt.Sprintf("k%02d", rng.Intn(1+writes*2/3)))
			if rng.Intn(3) == 0 {
				ops = append(ops, history.R(key, history.Value(rng.Intn(100))))
				continue
			}
			ops = append(ops, history.W(key, history.Value(len(ops))))
			w++
		}
		got, want = append(got, makeWriteSet(&slab, ops)), append(want, quadraticWriteSet(ops))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("list %d:\n got %v\nwant %v", i, got[i], want[i])
		}
	}
}

// TestInitTxnManyKeysIsNotQuadratic: a session may open over as many keys
// as a 64 MiB request body names. The write set of the initial transaction
// used to cost k²/2 string compares — 20 s at 100 000 keys.
func TestInitTxnManyKeysIsNotQuadratic(t *testing.T) {
	const k = 200_000
	keys := make([]history.Key, k)
	for i := range keys {
		keys[i] = history.Key(fmt.Sprintf("key-%07d", i))
	}
	rand.New(rand.NewSource(1)).Shuffle(k, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	done := make(chan *Incremental, 1)
	go func() {
		inc := NewIncremental(SER)
		inc.InitTxn(keys...)
		done <- inc
	}()
	select {
	case inc := <-done:
		for _, key := range []history.Key{keys[0], keys[k/2], keys[k-1]} {
			if v, ok := inc.txns[0].writes.get(key); !ok || v != 0 {
				t.Fatalf("init write set lost %q", key)
			}
		}
		if vio := inc.Add(history.Txn{Session: 0, Committed: true, Ops: []history.Op{history.R(keys[7], 0), history.W(keys[7], 1)}}); vio != nil {
			t.Fatalf("first transaction rejected: %s", vio.Witness())
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("InitTxn over %d keys still running after 5 s", k)
	}
}
