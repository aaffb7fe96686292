package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mtc/internal/core"
	"mtc/internal/faults"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

// ndjsonSource round-trips a history through the streaming codec and
// returns a TxnStream positioned at its first record.
func ndjsonSource(t *testing.T, h *history.History) history.TxnStream {
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

// runnerHistories are the runner captures the stream suites replay:
// 25 seeds of a 3-session workload on a clean SI store and on a faulty
// one, in session-grouped order.
func runnerHistories() []*history.History {
	bug := faults.BugByName("mariadb-galera-10.7.3")
	var out []*history.History
	for seed := int64(1); seed <= 25; seed++ {
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 3, Txns: 8, Objects: 3,
			Dist: workload.Uniform, Seed: seed, ReadOnlyFrac: 0.25,
		})
		for _, mk := range []func() *kv.Store{
			func() *kv.Store { return kv.NewStore(kv.ModeSI) },
			func() *kv.Store { return bug.NewStore(seed) },
		} {
			out = append(out, runner.Run(mk(), w, runner.Config{Retries: 2}).H)
		}
	}
	return out
}

// liveCapture is a RunStream capture, assembled in publish order, of a
// workload on a store run in mode.
func liveCapture(mode kv.Mode, lvl core.Level, sessions, txns int, seed int64) *history.History {
	w := workload.GenerateMT(workload.MTConfig{
		Sessions: sessions, Txns: txns, Objects: 6,
		Dist: workload.Uniform, Seed: seed, ReadOnlyFrac: 0.25,
	})
	return runner.RunStream(context.Background(), kv.NewStore(mode), w, runner.Config{Retries: 3}, lvl).H
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
	for i, h := range runnerHistories() {
		for _, lvl := range []core.Level{core.SER, core.SI} {
			batch := coreCheck(h, lvl)
			stream := streamCheck(t, h, lvl, 0)
			if batch.OK != stream.OK {
				t.Fatalf("history %d/%s: batch OK=%v, stream OK=%v\nbatch: %s\nstream: %s",
					i, lvl, batch.OK, stream.OK, batch.Witness(), stream.Witness())
			}
			if batch.OK && batch.NumEdges != stream.NumEdges {
				t.Fatalf("history %d/%s: accepted but edges diverge: batch %d, stream %d",
					i, lvl, batch.NumEdges, stream.NumEdges)
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
		r := streamCheck(t, liveCapture(storeMode(lvl), lvl, 4, 60, 7), lvl, 32)
		if !r.OK {
			t.Fatalf("%s: clean windowed stream rejected: %s", lvl, r.Witness())
		}
		if r.CompactedEpochs == 0 || r.CompactedTxns == 0 {
			t.Fatalf("%s: no compaction happened (epochs %d, txns %d)", lvl, r.CompactedEpochs, r.CompactedTxns)
		}
	}
}

// storeMode is the store mode whose histories satisfy lvl.
func storeMode(lvl core.Level) kv.Mode {
	if lvl == core.SER {
		return kv.ModeSerializable
	}
	return kv.ModeSI
}

// failingSource yields one transaction then a codec error.
type failingSource struct{ n int }

func (f *failingSource) DeclaredSessions() int { return 0 }

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

// TestStreamRefusesASessionBelowInit: a first record with session -5 is
// neither ⊥T (session -1) nor a client session. The NDJSON reader took
// any negative first session for ⊥T, so the capture checked OK where
// its MTCB twin was refused; both the one-shot and the streaming door
// now refuse it.
func TestStreamRefusesASessionBelowInit(t *testing.T) {
	doc := history.NDJSONHeader + "\n" +
		`{"id":0,"sess":-5,"ops":[{"k":1,"key":"x","v":0}],"start":0,"finish":0,"committed":true}` + "\n" +
		`{"id":1,"sess":0,"ops":[{"k":0,"key":"x","v":0}],"start":0,"finish":0,"committed":true}` + "\n"
	const want = "history: ndjson: line 2: implausible session -5"
	if _, err := history.ReadNDJSON(strings.NewReader(doc)); err == nil || err.Error() != want {
		t.Fatalf("ReadNDJSON: %v, want %q", err, want)
	}
	sr, err := history.NewStreamReader(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.CheckStreamCtx(context.Background(), sr, core.SER, 0, 0); err == nil || err.Error() != want {
		t.Fatalf("CheckStreamCtx: %v, want %q", err, want)
	}
}

// heapProbe passes a source through and, once `at` transactions have
// gone by, records the live heap after a collection.
type heapProbe struct {
	src  history.TxnStream
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

// DeclaredSessions forwards the wrapped source's header, so the probed
// check arms its sessions as mtc-verify -stream does.
func (p *heapProbe) DeclaredSessions() int { return p.src.DeclaredSessions() }

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
		t.Fatalf("clean stream: %v %s", err, r.Witness())
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

// syncStreamCheck is CheckStreamCtx without its read-ahead — the loop
// as it was before decode and check overlapped: Next and the online
// checker take turns on the calling goroutine. It is the reference the
// read-ahead must match result for result.
func syncStreamCheck(src history.TxnStream, lvl core.Level, window int) (core.Result, error) {
	inc := core.NewIncremental(lvl)
	declared := src.DeclaredSessions()
	for s := range declared {
		inc.ExpectSession(s)
	}
	for i := 0; ; i++ {
		t, err := src.Next()
		if err == io.EOF {
			return inc.Finalize(), nil
		}
		if err != nil {
			return core.Result{}, err
		}
		if t.Session >= declared {
			inc.ExpectSession(t.Session)
		}
		if vio := core.IncrementalAdd(inc, t, i == 0 && t.Session < 0); vio != nil {
			return *vio, nil
		}
		inc.MaybeCompact(window, 0, nil)
	}
}

// sliceSource replays a history's transactions. With err set, Next
// fails with it at position failAt instead of yielding that record;
// onNext, when set, sees each position as a Next call starts on it.
// running counts the Next calls in progress; once returned is set, any
// further call marks late.
type sliceSource struct {
	h        *history.History
	failAt   int
	err      error
	onNext   func(pos int)
	pos      int
	running  atomic.Int32
	returned atomic.Bool
	late     atomic.Bool
}

func (s *sliceSource) Next() (history.Txn, error) {
	s.running.Add(1)
	defer s.running.Add(-1)
	if s.returned.Load() {
		s.late.Store(true)
	}
	if s.onNext != nil {
		s.onNext(s.pos)
	}
	switch {
	case s.err != nil && s.pos == s.failAt:
		return history.Txn{}, s.err
	case s.pos == len(s.h.Txns):
		return history.Txn{}, io.EOF
	}
	s.pos++
	return s.h.Txns[s.pos-1], nil
}

func (s *sliceSource) DeclaredSessions() int { return len(s.h.Sessions) }

// checkedStream runs CheckStreamCtx over src and holds the return to
// the read-ahead's contract: no Next call is still running, none starts
// afterwards, and the decoding goroutine is gone. A joined goroutine
// signals its exit an instant before it is gone, so the count is given
// a moment to settle; a leaked one never leaves.
func checkedStream(t *testing.T, ctx context.Context, src *sliceSource, lvl core.Level, window int) (core.Result, error) {
	t.Helper()
	before := runtime.NumGoroutine()
	r, err := core.CheckStreamCtx(ctx, src, lvl, window, 0)
	src.returned.Store(true)
	if n := src.running.Load(); n != 0 {
		t.Fatalf("CheckStreamCtx returned with %d Next calls still running", n)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before CheckStreamCtx, %d a second after it returned", before, runtime.NumGoroutine())
		}
	}
	if src.late.Load() {
		t.Fatal("Next was called after CheckStreamCtx returned")
	}
	return r, err
}

// TestCheckStreamMatchesSynchronousLoop: decoding ahead of the checker
// changes no result. The runner captures and live captures long enough
// to span several read-ahead batches are checked at SER and SI, windows
// 0 and 32, with and without the read-ahead, and the two Results must
// be identical — counterexample, edge and compaction counts included.
func TestCheckStreamMatchesSynchronousLoop(t *testing.T) {
	hs := runnerHistories()
	for _, lvl := range []core.Level{core.SER, core.SI} {
		hs = append(hs, liveCapture(storeMode(lvl), lvl, 4, 60, 7), liveCapture(storeMode(lvl), lvl, 4, 300, 8))
	}
	hs = append(hs, liveCapture(kv.ModeSI, core.SER, 4, 300, 9)) // write skew: SER fails mid-stream
	for i, h := range hs {
		for _, lvl := range []core.Level{core.SER, core.SI} {
			for _, window := range []int{0, 32} {
				want, err := syncStreamCheck(ndjsonSource(t, h), lvl, window)
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.CheckStreamCtx(context.Background(), ndjsonSource(t, h), lvl, window, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("history %d (%d txns) %s window %d:\nread-ahead: %+v\nreference:  %+v",
						i, len(h.Txns), lvl, window, got, want)
				}
			}
		}
	}
}

// lostUpdateAt is a read-modify-write chain on x over three sessions,
// three read-ahead batches long, whose record at stream position at (⊥T is
// position 0) overwrites the version its predecessor already
// overwrote: a lost update the online checker reports as that record
// arrives.
func lostUpdateAt(at int) *history.History {
	b := history.NewBuilder("x")
	prev, cur := history.Value(0), history.Value(0)
	for pos := 1; pos < 3*core.ReadAheadBatch; pos++ {
		read := cur
		if pos == at {
			read = prev
		}
		b.Txn(pos%3, history.R("x", read), history.W("x", history.Value(pos)))
		prev, cur = read, history.Value(pos)
	}
	return b.Build()
}

// TestCheckStreamReadAheadReturnPaths plants a violation on both sides
// of a batch boundary and a source error just before and just after it,
// and cancels mid-stream: every verdict and error is the synchronous
// loop's, and every return joins the decoder without another Next.
func TestCheckStreamReadAheadReturnPaths(t *testing.T) {
	const batch = core.ReadAheadBatch
	gremlin := errors.New("disk gremlin")
	for _, at := range []int{batch - 1, batch, batch + 1} {
		h := lostUpdateAt(at)
		for _, tc := range []struct {
			name   string
			failAt int
			err    error
		}{
			{"violation", 0, nil},
			{"error before the violation", at, gremlin},
			{"error after the violation", at + 1, gremlin},
		} {
			for _, window := range []int{0, 32} {
				want, wantErr := syncStreamCheck(&sliceSource{h: h, failAt: tc.failAt, err: tc.err}, core.SER, window)
				got, err := checkedStream(t, context.Background(), &sliceSource{h: h, failAt: tc.failAt, err: tc.err}, core.SER, window)
				if err != wantErr || !reflect.DeepEqual(got, want) {
					t.Fatalf("at %d, %s, window %d: got %v %+v, reference %v %+v", at, tc.name, window, err, got, wantErr, want)
				}
				switch {
				case tc.name == "error before the violation":
					if err != gremlin {
						t.Fatalf("at %d: the error ahead of the violation was not reported: %v %+v", at, err, got)
					}
				case got.OK || got.NumTxns != at+1:
					t.Fatalf("at %d, %s: want the violation at record %d, got %v %+v", at, tc.name, at, err, got)
				}
			}
		}
	}

	// The decoder starts on the next batch while the checker finds the
	// violation in the first; the return waits for that Next call.
	slow := &sliceSource{h: lostUpdateAt(10), onNext: func(pos int) {
		if pos == batch {
			time.Sleep(20 * time.Millisecond)
		}
	}}
	if r, err := checkedStream(t, context.Background(), slow, core.SER, 0); err != nil || r.OK {
		t.Fatalf("violation behind a slow Next: %v %+v", err, r)
	}

	clean := history.SerialHistory(3*batch, "x", "y")
	r, err := checkedStream(t, context.Background(), &sliceSource{h: clean}, core.SI, 32)
	if err != nil || !r.OK || r.NumTxns != len(clean.Txns) {
		t.Fatalf("clean stream: %v %s", err, r.Witness())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &sliceSource{h: clean, onNext: func(pos int) {
		if pos == batch+batch/2 {
			cancel()
		}
	}}
	if _, err := checkedStream(t, ctx, src, core.SI, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-stream: %v", err)
	}
	src = &sliceSource{h: clean}
	if _, err := checkedStream(t, ctx, src, core.SI, 0); !errors.Is(err, context.Canceled) || src.pos != 0 {
		t.Fatalf("cancelled before the call: %v after %d records", err, src.pos)
	}
}

// TestCheckStreamArmsOnlySessionsItMeets: a record naming session
// 2^20-1 used to arm every session below it — a million phantom
// sessions that each compaction then walked twice, turning a 4 001-txn
// windowed check into a twenty-second one. A session is now armed at its
// own first record, so the check allocates what the capture holds.
func TestCheckStreamArmsOnlySessionsItMeets(t *testing.T) {
	keys := []history.Key{"a", "b", "c", "d", "e", "f", "g", "h"}
	b := history.NewBuilder(keys...)
	latest := make([]history.Value, len(keys))
	for i := 0; i < 4000; i++ {
		k := i % len(keys)
		b.Txn(i%4, history.R(keys[k], latest[k]), history.W(keys[k], history.Value(i+1)))
		latest[k] = history.Value(i + 1)
	}
	h := b.Build()
	var buf bytes.Buffer
	sw, err := history.NewStreamWriter(&buf, len(h.Sessions))
	if err != nil {
		t.Fatal(err)
	}
	mid := len(h.Txns) / 2
	for i, txn := range h.Txns {
		if i == mid {
			txn.Session = 1<<20 - 1
		}
		if err := sw.WriteTxn(txn); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	capture := buf.Bytes()
	var r core.Result
	allocs := testing.AllocsPerRun(1, func() {
		sr, err := history.NewStreamReader(bytes.NewReader(capture))
		if err != nil {
			t.Fatal(err)
		}
		if r, err = core.CheckStreamCtx(context.Background(), sr, core.SER, 64, 0); err != nil {
			t.Fatal(err)
		}
	})
	if !r.OK || r.CompactedEpochs == 0 {
		t.Fatalf("sparse-session capture: %+v", r)
	}
	t.Logf("%d txns, %.0f objects allocated", len(h.Txns), allocs)
	if allocs > 10_000 {
		t.Fatalf("a %d-txn check allocated %.0f objects: sessions the capture never names were armed", len(h.Txns), allocs)
	}
}
