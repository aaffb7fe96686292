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
)

// benchStream feeds n clean round-robin RMW transactions (every key
// overwritten every |keys| transactions, so values settle quickly) into
// the online checker, compacting every window/2 when windowed, and
// reports the peak post-GC heap.
func benchStream(b *testing.B, n, window int) {
	const (
		keys     = 256
		sessions = 8
	)
	keyNames := make([]history.Key, keys)
	for i := range keyNames {
		keyNames[i] = history.Key(fmt.Sprintf("k%03d", i))
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
		inc := core.NewIncremental(core.SER)
		inc.InitTxn(keyNames...)
		latest := make([]history.Value, keys)
		next := history.Value(1)
		for j := 0; j < n; j++ {
			k := j % keys
			ops := []history.Op{
				{Kind: history.OpRead, Key: keyNames[k], Value: latest[k]},
				{Kind: history.OpWrite, Key: keyNames[k], Value: next},
			}
			latest[k] = next
			next++
			if vio := inc.Add(history.Txn{Session: j % sessions, Ops: ops, Committed: true}); vio != nil {
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

// BenchmarkStream1MWindowed is the bounded-memory demonstration: 1M
// transactions under a 4096-transaction window.
func BenchmarkStream1MWindowed(b *testing.B) { benchStream(b, 1_000_000, 4096) }

// BenchmarkStream1MUnbounded is the O(history) baseline the window is
// measured against.
func BenchmarkStream1MUnbounded(b *testing.B) { benchStream(b, 1_000_000, 0) }

// BenchmarkStream100kWindowed / Unbounded are the quick-turnaround forms
// used by the CI bench gate (the 1M pair is for the full trajectory).
func BenchmarkStream100kWindowed(b *testing.B)  { benchStream(b, 100_000, 2048) }
func BenchmarkStream100kUnbounded(b *testing.B) { benchStream(b, 100_000, 0) }

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
