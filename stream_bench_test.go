// stream_bench_test.go benchmarks long-stream online verification with
// and without epoch-windowed compaction. The windowed variant is the
// acceptance bar of the bounded-memory pipeline: one million clean RMW
// transactions verified with peak live heap bounded by the window
// (reported as the peak-heap-MB metric) while the unbounded variant
// grows linearly with the stream. Run with -benchmem to also see the
// cumulative allocation volume.
package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"mtc/internal/core"
	"mtc/internal/history"
	"mtc/internal/workload"
)

// roundRobinStream is the clean stream of the original pair: 256 keys,
// transaction j an RMW of key j % 256 writing the value j+1 — every key
// overwritten every 256 transactions, so values settle quickly and a
// compaction has next to nothing to summarise.
func roundRobinStream() ([]history.Key, func(j int) history.Txn) {
	const (
		keys     = 256
		sessions = 8
	)
	keyNames := make([]history.Key, keys)
	for i := range keyNames {
		keyNames[i] = history.Key(fmt.Sprintf("k%03d", i))
	}
	return keyNames, func(j int) history.Txn {
		k := j % keys
		ops := []history.Op{
			{Kind: history.OpRead, Key: keyNames[k], Value: history.Value(max(0, j-keys+1))},
			{Kind: history.OpWrite, Key: keyNames[k], Value: history.Value(j + 1)},
		}
		return history.Txn{Session: j % sessions, Ops: ops, Committed: true}
	}
}

// zipfStream is the stream with the windowed path's failure mode: the
// workload.GenerateMT shape mix (R, R+R, RMW, R+RMW, RMW+RMW) over 2000
// Zipf keys, run against a single-copy store so it is serializable. Cold
// keys keep their latest slot — writer, readers — alive across many
// epochs, so every compaction has thousands of long-lived nodes to
// connect through the region it collapses. The n transactions are
// planned once, outside the timer.
func zipfStream(n int) ([]history.Key, func(j int) history.Txn) {
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
	return w.Keys, func(j int) history.Txn { return txns[j] }
}

// benchStream feeds transactions 0..n-1 of a clean stream over keyNames
// into the online checker, compacting every window/2 when windowed, and
// reports the peak post-GC heap.
func benchStream(b *testing.B, n, window int, keyNames []history.Key, txn func(j int) history.Txn) {
	var peak uint64
	sample := func() {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		inc := core.NewIncremental(core.SER)
		inc.InitTxn(keyNames...)
		for j := 0; j < n; j++ {
			if vio := inc.Add(txn(j)); vio != nil {
				b.Fatalf("clean stream rejected at %d: %s", j, vio.Explain())
			}
			inc.MaybeCompact(window, 0, nil)
			if j%131072 == 0 {
				sample()
			}
		}
		sample()
		if r := inc.Finalize(); !r.OK {
			b.Fatalf("finalize rejected: %s", r.Explain())
		}
		if window > 0 && inc.CompactedTxns() < n/2 {
			b.Fatalf("compaction barely ran: %d of %d txns", inc.CompactedTxns(), n)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
	b.ReportMetric(float64(n), "txns/stream")
}

func benchRoundRobin(b *testing.B, n, window int) {
	keys, txn := roundRobinStream()
	benchStream(b, n, window, keys, txn)
}

// BenchmarkStream1MWindowed is the bounded-memory demonstration: 1M
// transactions under a 4096-transaction window.
func BenchmarkStream1MWindowed(b *testing.B) { benchRoundRobin(b, 1_000_000, 4096) }

// BenchmarkStream1MUnbounded is the O(history) baseline the window is
// measured against.
func BenchmarkStream1MUnbounded(b *testing.B) { benchRoundRobin(b, 1_000_000, 0) }

// BenchmarkStream100kWindowed / Unbounded are the quick-turnaround forms
// used by the CI bench gate (the 1M pair is for the full trajectory).
func BenchmarkStream100kWindowed(b *testing.B)  { benchRoundRobin(b, 100_000, 2048) }
func BenchmarkStream100kUnbounded(b *testing.B) { benchRoundRobin(b, 100_000, 0) }

// BenchmarkStream100kWindowedZipf / UnboundedZipf are the same pair on
// zipfStream. CI gates their same-run ratio: compaction may cost a
// windowed stream a constant factor over the unbounded one, not a factor
// that grows with the epochs behind it.
func BenchmarkStream100kWindowedZipf(b *testing.B) {
	keys, txn := zipfStream(100_000)
	benchStream(b, 100_000, 2048, keys, txn)
}

func BenchmarkStream100kUnboundedZipf(b *testing.B) {
	keys, txn := zipfStream(100_000)
	benchStream(b, 100_000, 0, keys, txn)
}

// samplingSource wraps a TxnSource and samples the post-GC heap every
// 131072 transactions, mirroring benchStream's peak-heap probe.
type samplingSource struct {
	src    core.TxnSource
	n      int
	sample func()
}

func (s *samplingSource) Next() (history.Txn, error) {
	if s.n%131072 == 0 {
		s.sample()
	}
	s.n++
	return s.src.Next()
}

func (s *samplingSource) DeclaredSessions() int {
	if d, ok := s.src.(core.SessionDeclarer); ok {
		return d.DeclaredSessions()
	}
	return 0
}

// benchStreamNDJSON drives the same clean RMW stream through the full
// NDJSON pipeline: a generator goroutine encodes transactions with
// StreamWriter into a pipe, and CheckStream decodes and verifies them
// off the other end — codec and checker both holding one transaction at
// a time, so the windowed peak heap matches benchStream's bound even
// though a materialised capture of the stream would be ~100 bytes/txn.
func benchStreamNDJSON(b *testing.B, n, window int) {
	const (
		keys     = 256
		sessions = 8
	)
	keyNames := make([]history.Key, keys)
	initOps := make([]history.Op, keys)
	for i := range keyNames {
		keyNames[i] = history.Key(fmt.Sprintf("k%03d", i))
		initOps[i] = history.Op{Kind: history.OpWrite, Key: keyNames[i]}
	}
	var peak uint64
	sample := func() {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		pr, pw := io.Pipe()
		go func() {
			sw, err := history.NewStreamWriter(pw, sessions)
			if err != nil {
				pw.CloseWithError(err)
				return
			}
			if err := sw.WriteTxn(history.Txn{ID: 0, Session: -1, Ops: initOps, Committed: true}); err != nil {
				pw.CloseWithError(err)
				return
			}
			latest := make([]history.Value, keys)
			next := history.Value(1)
			for j := 0; j < n; j++ {
				k := j % keys
				t := history.Txn{
					ID: j + 1, Session: j % sessions, Committed: true,
					Ops: []history.Op{
						{Kind: history.OpRead, Key: keyNames[k], Value: latest[k]},
						{Kind: history.OpWrite, Key: keyNames[k], Value: next},
					},
				}
				latest[k] = next
				next++
				if err := sw.WriteTxn(t); err != nil {
					pw.CloseWithError(err)
					return
				}
			}
			if err := sw.Flush(); err != nil {
				pw.CloseWithError(err)
				return
			}
			pw.Close()
		}()
		sr, err := history.NewStreamReader(pr)
		if err != nil {
			b.Fatalf("stream reader: %v", err)
		}
		r, err := core.CheckStreamCtx(context.Background(), &samplingSource{src: sr, sample: sample}, core.SER, window, 0)
		if err != nil || !r.OK {
			b.Fatalf("clean NDJSON stream rejected: %v %s", err, r.Explain())
		}
		sample()
	}
	b.StopTimer()
	b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
	b.ReportMetric(float64(n), "txns/stream")
}

// BenchmarkStream1MNDJSON verifies one million transactions end to end
// through the streaming codec under the same 4096-transaction window as
// BenchmarkStream1MWindowed — the NDJSON layer adds encode/decode cost
// but not memory: the peak heap holds at the windowed bound.
func BenchmarkStream1MNDJSON(b *testing.B) { benchStreamNDJSON(b, 1_000_000, 4096) }

// BenchmarkStream100kNDJSON is its quick-turnaround CI form.
func BenchmarkStream100kNDJSON(b *testing.B) { benchStreamNDJSON(b, 100_000, 2048) }
