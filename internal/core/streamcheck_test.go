package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"mtc/internal/core"
	"mtc/internal/faults"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

// ndjsonSource round-trips a history through the streaming codec and
// returns a TxnSource positioned at its first record.
func ndjsonSource(t *testing.T, h *history.History) core.TxnSource {
	t.Helper()
	var buf bytes.Buffer
	if err := history.WriteNDJSON(&buf, h); err != nil {
		t.Fatal(err)
	}
	sr, err := history.NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

// streamCheck verifies h as an NDJSON stream under the given window.
func streamCheck(t *testing.T, h *history.History, lvl core.Level, window int) core.Result {
	t.Helper()
	r, err := core.CheckStreamCtx(context.Background(), ndjsonSource(t, h), lvl, window, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCheckStreamMatchesBatch: verifying an NDJSON capture transaction
// by transaction decides the same predicate as the batch checker, on
// clean and faulty histories alike.
func TestCheckStreamMatchesBatch(t *testing.T) {
	bug := faults.BugByName("mariadb-galera-10.7.3")
	for seed := int64(1); seed <= 25; seed++ {
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 3, Txns: 8, Objects: 3,
			Dist: workload.Uniform, Seed: seed, ReadOnlyFrac: 0.25,
		})
		for _, mk := range []func() *kv.Store{
			func() *kv.Store { return kv.NewStore(kv.ModeSI) },
			func() *kv.Store { return bug.NewStore(seed) },
		} {
			h := runner.Run(mk(), w, runner.Config{Retries: 2}).H
			for _, lvl := range []core.Level{core.SER, core.SI} {
				batch := coreCheck(h, lvl)
				stream := streamCheck(t, h, lvl, 0)
				if batch.OK != stream.OK {
					t.Fatalf("seed %d/%s: batch OK=%v, stream OK=%v\nbatch: %s\nstream: %s",
						seed, lvl, batch.OK, stream.OK, batch.Explain(), stream.Explain())
				}
				if batch.OK && batch.NumEdges != stream.NumEdges {
					t.Fatalf("seed %d/%s: accepted but edges diverge: batch %d, stream %d",
						seed, lvl, batch.NumEdges, stream.NumEdges)
				}
			}
		}
	}
}

// TestCheckStreamWindowed: a windowed stream check compacts as it goes
// and still accepts the clean capture — the header's declared sessions
// arm the staleness horizon, so the verdict does not depend on how the
// capture's commit-to-ingest skew compares with the window. The capture
// comes from RunStream, whose history is assembled in publish order:
// the horizon's exactness guarantee covers exactly such
// ingestion-ordered captures (runner.Run groups records by session, so
// its files replay correctly only with window 0 or a window exceeding
// the session skew).
func TestCheckStreamWindowed(t *testing.T) {
	for _, lvl := range []core.Level{core.SER, core.SI} {
		mode := kv.ModeSI
		if lvl == core.SER {
			mode = kv.ModeSerializable
		}
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 4, Txns: 60, Objects: 6,
			Dist: workload.Uniform, Seed: 7, ReadOnlyFrac: 0.25,
		})
		h := runner.RunStream(context.Background(), kv.NewStore(mode), w, runner.Config{Retries: 3}, lvl).H
		r := streamCheck(t, h, lvl, 32)
		if !r.OK {
			t.Fatalf("%s: clean windowed stream rejected: %s", lvl, r.Explain())
		}
		if r.CompactedEpochs == 0 || r.CompactedTxns == 0 {
			t.Fatalf("%s: no compaction happened (epochs %d, txns %d)", lvl, r.CompactedEpochs, r.CompactedTxns)
		}
	}
}

// failingSource yields one transaction then a codec error.
type failingSource struct{ n int }

func (f *failingSource) Next() (history.Txn, error) {
	if f.n == 0 {
		f.n++
		return history.Txn{ID: 0, Session: 0, Committed: true}, nil
	}
	return history.Txn{}, errors.New("disk gremlin")
}

func TestCheckStreamPropagatesSourceError(t *testing.T) {
	_, err := core.CheckStreamCtx(context.Background(), &failingSource{}, core.SI, 0, 0)
	if err == nil || err.Error() != "disk gremlin" {
		t.Fatalf("source error not propagated: %v", err)
	}
}

// heapProbe passes a source through and, once `at` transactions have
// gone by, records the live heap after a collection.
type heapProbe struct {
	src  core.TxnSource
	at   int
	n    int
	heap uint64
}

func (p *heapProbe) Next() (history.Txn, error) {
	if p.n == p.at {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p.heap = ms.HeapAlloc
	}
	p.n++
	return p.src.Next()
}

// TestCheckStreamFreshKeysBoundedHeap: a windowed check of an NDJSON
// stream whose key space never stops growing holds O(window) memory end
// to end. Every second transaction is an aborted attempt on a key never
// seen before or again — the one shape of fresh key the checker itself
// forgets (a committed key's latest version stays live for good) — so
// what the bound catches is the reader: its key-interning table must be
// a cache that restarts, not a record of every key the stream ever held.
func TestCheckStreamFreshKeysBoundedHeap(t *testing.T) {
	const (
		txns     = 400_000
		sessions = 4
		hot      = 8
		window   = 1024
		bound    = 16 << 20 // a full table is ~10 MB; one never dropped, ~30 MB by the end
	)
	pr, pw := io.Pipe()
	go func() {
		sw, err := history.NewStreamWriter(pw, sessions)
		latest := make([]history.Value, hot)
		for j := 0; err == nil && j < txns; j++ {
			txn := history.Txn{ID: j, Session: j % sessions}
			if k := j / 2 % hot; j%2 == 1 {
				fresh := history.Key(fmt.Sprintf("a-key-no-transaction-before-or-after-this-one-touches/%012d", j))
				txn.Ops = []history.Op{{Kind: history.OpWrite, Key: fresh, Value: 1}}
			} else {
				key := history.Key(fmt.Sprintf("hot%d", k))
				txn.Committed = true
				if latest[k] != 0 {
					txn.Ops = append(txn.Ops, history.Op{Kind: history.OpRead, Key: key, Value: latest[k]})
				}
				latest[k] = history.Value(j + 1)
				txn.Ops = append(txn.Ops, history.Op{Kind: history.OpWrite, Key: key, Value: latest[k]})
			}
			err = sw.WriteTxn(txn)
		}
		if err == nil {
			err = sw.Flush()
		}
		pw.CloseWithError(err)
	}()
	sr, err := history.NewStreamReader(pr)
	if err != nil {
		t.Fatal(err)
	}
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	probe := &heapProbe{src: sr, at: txns - 1}
	r, err := core.CheckStreamCtx(context.Background(), probe, core.SER, window, 0)
	if err != nil || !r.OK {
		t.Fatalf("clean stream: %v %s", err, r.Explain())
	}
	if r.CompactedTxns < txns/2 {
		t.Fatalf("compaction barely ran: %d of %d txns", r.CompactedTxns, txns)
	}
	grown := int64(probe.heap) - int64(before.HeapAlloc)
	t.Logf("live heap grew %.1f MB over %d txns, half of them on fresh keys", float64(grown)/(1<<20), txns)
	if grown > bound {
		t.Fatalf("live heap grew %d MB over %d txns, bound %d MB: something holds every key", grown>>20, txns, bound>>20)
	}
}
