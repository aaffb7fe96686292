package core_test

import (
	"runtime"
	"testing"

	"mtc/internal/core"
	"mtc/internal/history"
	"mtc/internal/workload"
)

// zipfStream plans n transactions of the stream the go-bench gate runs
// (stream_bench_test.go): the workload.GenerateMT shape mix over 2000 Zipf
// keys against a single-copy store, eight sessions, serializable. Cold
// keys keep their latest slot alive for many epochs — the long-lived
// records that could pin a retired chunk.
func zipfStream(n int) ([]history.Key, []history.Txn) {
	const (
		keys     = 2000
		sessions = 8
	)
	w := workload.GenerateMT(workload.MTConfig{
		Sessions: sessions, Txns: (n + sessions - 1) / sessions, Objects: keys,
		Dist: workload.Zipfian, Seed: 1, ReadOnlyFrac: 0.2,
	})
	index := make(map[history.Key]int, keys)
	for i, k := range w.Keys {
		index[k] = i
	}
	latest := make([]history.Value, keys)
	next := history.Value(1)
	txns := make([]history.Txn, n)
	for j := range txns {
		var ops []history.Op
		for _, op := range w.Sessions[j%sessions][j/sessions].Ops {
			k := index[op.Key]
			ops = append(ops, history.Op{Kind: history.OpRead, Key: op.Key, Value: latest[k]})
			if op.Kind == workload.SpecRMW {
				ops = append(ops, history.Op{Kind: history.OpWrite, Key: op.Key, Value: next})
				latest[k] = next
				next++
			}
		}
		txns[j] = history.Txn{Session: j % sessions, Ops: ops, Committed: true}
	}
	return w.Keys, txns
}

// feed adds txns to inc, compacting on the shared cadence.
func feed(t *testing.T, inc *core.Incremental, txns []history.Txn, window int) {
	t.Helper()
	for i := range txns {
		if vio := inc.Add(txns[i]); vio != nil {
			t.Fatalf("clean stream rejected: %s", vio.Explain())
		}
		inc.MaybeCompact(window, 0, nil)
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestReplayAllocatesPerEpochNotPerTransaction: once a windowed stream has
// filled both arena sets, an epoch refills chunks it already owns — over
// ten epochs what is left is the odd chunk as the live set drifts upward.
// An unbounded replay never refills, so it pays its chunks: one per 1024
// records, plus the doubling of the tables indexed by node and version.
func TestReplayAllocatesPerEpochNotPerTransaction(t *testing.T) {
	const (
		window = 2048
		epoch  = window / 2
		warm   = window + 3*epoch // the first compaction to collapse anything is the second one due
		timed  = 10 * epoch
	)
	keys, txns := zipfStream(warm + timed)
	for _, lvl := range []core.Level{core.SER, core.SI} {
		for _, tc := range []struct {
			name   string
			window int
			bound  float64 // objects per transaction
		}{{"windowed", window, 0.05}, {"unbounded", 0, 0.2}} {
			inc := core.NewIncremental(lvl)
			inc.InitTxn(keys...)
			feed(t, inc, txns[:warm], tc.window)
			if got := inc.CompactedEpochs(); tc.window > 0 && got != 3 {
				t.Fatalf("%s/%s: %d warm-up epochs, want 3", lvl, tc.name, got)
			}
			before := mallocs()
			feed(t, inc, txns[warm:], tc.window)
			perTxn := float64(mallocs()-before) / timed
			if got := inc.CompactedEpochs(); tc.window > 0 && got != 13 {
				t.Fatalf("%s/%s: %d epochs in all, want 13", lvl, tc.name, got)
			}
			t.Logf("%s/%s: %.4f objects per transaction", lvl, tc.name, perTxn)
			if perTxn > tc.bound {
				t.Errorf("%s/%s: %.4f objects per transaction, bound %.2f", lvl, tc.name, perTxn, tc.bound)
			}
		}
	}
}

// TestWarmCompactionAllocatesNothing: once the two arena sets and
// Compact's scratch have reached the stream's size, a compaction refills
// what it owns. Which epochs are warm is a property of the stream, not of
// the test: the live set of this one still drifts upward, and an epoch in
// which it crosses a chunk boundary buys the chunk; ten consecutive ones
// from the 30th on do not.
func TestWarmCompactionAllocatesNothing(t *testing.T) {
	const (
		window = 2048
		epoch  = window / 2
		warm   = window + 30*epoch
		timed  = 10
	)
	keys, txns := zipfStream(warm + timed*epoch)
	for _, lvl := range []core.Level{core.SER, core.SI} {
		inc := core.NewIncremental(lvl)
		inc.InitTxn(keys...)
		fed := 0
		for e := 0; e < timed; e++ {
			due := warm + e*epoch // the Add that makes the next compaction due
			feed(t, inc, txns[fed:due-1], window)
			if vio := inc.Add(txns[due-1]); vio != nil {
				t.Fatalf("clean stream rejected: %s", vio.Explain())
			}
			fed = due
			// AllocsPerRun calls its function once to warm up; the compaction is
			// the call it measures.
			before, warmUp := inc.CompactedEpochs(), true
			n := testing.AllocsPerRun(1, func() {
				if warmUp {
					warmUp = false
					return
				}
				inc.MaybeCompact(window, 0, nil)
			})
			if inc.CompactedEpochs() != before+1 {
				t.Fatalf("%s: no compaction at transaction %d", lvl, inc.NumTxns())
			}
			if n != 0 {
				t.Errorf("%s: compaction %d allocates %v times", lvl, inc.CompactedEpochs(), n)
			}
		}
	}
}

// TestWindowedReplayPinsNoRetiredChunk: what survives many epochs in an
// arena — a cold key's slot's reader list, its writer's write set and
// transaction record — is copied forward each time, so the chunk it was
// born in is refilled, not held. Were those survivors kept in place, every
// epoch would strand a chunk or two behind them and the live heap would
// climb with the epochs. (The slot records themselves are kept in place,
// and hold no chunk hostage for another reason: a dead one is the next one
// handed out, so their slab is as large as the most slots ever live.) The
// stream's own live set climbs too, until every cold key has been touched
// (it doubles between epoch 5 and epoch 40, and the heap with it, before
// and after the arenas), so the heap is held level from there on: epoch
// 80 against epoch 40.
func TestWindowedReplayPinsNoRetiredChunk(t *testing.T) {
	const (
		window = 2048
		epoch  = window / 2
		settle = window + 40*epoch // the 40th compaction that finds something to collapse
	)
	keys, txns := zipfStream(settle + 40*epoch)
	for _, lvl := range []core.Level{core.SER, core.SI} {
		base := liveHeap()
		inc := core.NewIncremental(lvl)
		inc.InitTxn(keys...)
		feed(t, inc, txns[:settle], window)
		settled, nodes := liveHeap()-base, inc.LiveNodes()
		feed(t, inc, txns[settle:], window)
		late := liveHeap() - base
		if inc.CompactedEpochs() != 80 {
			t.Fatalf("%s: %d epochs, want 80", lvl, inc.CompactedEpochs())
		}
		t.Logf("%s: live heap %d KB and %d live nodes after epoch 40, %d KB and %d after epoch 80",
			lvl, settled>>10, nodes, late>>10, inc.LiveNodes())
		if late > settled+settled/10 {
			t.Errorf("%s: live heap grew from %d KB after epoch 40 to %d KB after epoch 80", lvl, settled>>10, late>>10)
		}
		runtime.KeepAlive(inc)
	}
}

// TestSmallIncrementalIsSmall: the sharded runner holds one Incremental
// per component and a session may see ten transactions in its life, so
// the first chunks are small: two keys and the five mini-transaction
// shapes twice over cost under ten kilobytes (13.8 KB when every record
// and list was its own allocation), where fixed 1024-record chunks would
// cost two hundred. SI pays on top for the witness map — 96 bytes a
// composed edge, doubling as it grows — and a second cell slab.
func TestSmallIncrementalIsSmall(t *testing.T) {
	cur := map[history.Key]history.Value{}
	fresh := history.Value(1)
	r := func(k history.Key) history.Op { return history.R(k, cur[k]) }
	w := func(k history.Key) history.Op {
		cur[k], fresh = fresh, fresh+1
		return history.W(k, cur[k])
	}
	var txns []history.Txn
	for i := 0; i < 2; i++ {
		for _, ops := range [][]history.Op{
			{r("x")},
			{r("x"), r("y")},
			{r("x"), w("x")},
			{r("x"), r("y"), w("y")},
			{r("x"), w("x"), r("y"), w("y")},
		} {
			txns = append(txns, history.Txn{Session: len(txns) % 3, Committed: true, Ops: ops})
		}
	}
	for lvl, bound := range map[core.Level]uint64{core.SER: 10 << 10, core.SI: 24 << 10} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		inc := core.NewIncremental(lvl)
		inc.InitTxn("x", "y")
		for i := range txns {
			inc.Add(txns[i])
		}
		runtime.ReadMemStats(&after)
		if r := inc.Finalize(); !r.OK {
			t.Fatalf("%s: clean stream rejected: %s", lvl, r.Explain())
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d bytes in %d objects", lvl, got, after.Mallocs-before.Mallocs)
		if got > bound {
			t.Errorf("%s: an Incremental over eleven transactions allocated %d bytes, bound %d", lvl, got, bound)
		}
	}
}
