package runner

import (
	"context"
	"sync"
	"sync/atomic"

	"mtc/internal/core"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/workload"
)

// StreamResult is the outcome of a streaming run: the usual execution
// stats plus the online verdict.
type StreamResult struct {
	Result
	// Verdict is the incremental checker's verdict over everything the
	// run committed (identical to batch-checking H). On a sharded run it
	// is the merged per-component verdict: OK is the conjunction, the
	// counts are sums, and the counterexample comes from the first
	// violating component with its transaction ids remapped to global
	// stream positions (the ids of the assembled history on unwindowed
	// runs).
	Verdict core.Result
	// ViolationAt is the number of transactions (including ⊥T) the
	// checker had ingested when the violation surfaced mid-stream. It is
	// 0 when the run verified clean AND when the violation only became
	// decidable at Finalize (an unresolved aborted/thin-air read has no
	// single offending commit). On a sharded run it counts transactions
	// verified across every shard, exact up to the other workers'
	// in-flight transaction.
	ViolationAt int
	// Shards is the number of key-disjoint components the run verified
	// through (Config.Shard > 0); 0 on an unsharded run.
	Shards int
	// EarlyAborted reports that the violation stopped the sessions
	// before the workload plan was exhausted.
	EarlyAborted bool
	// Err is the context's error when the run was cut short by
	// cancellation; the verdict then covers only the executed prefix.
	Err error
}

// streamMsg carries one executed transaction attempt from a session
// goroutine to the verifier, or (done) the marker that the session has
// published its last record and releases its staleness-horizon hold.
type streamMsg struct {
	si   int
	rec  record
	done bool
}

// startSessions initializes the store and starts the sessions
// (runSessions), publishing every finished transaction attempt, and each
// session's done marker after its last one, on the returned channel
// (closed when all sessions finish). Sessions stop at the next boundary
// once stop is set.
func startSessions(s *kv.Store, w *workload.Workload, cfg Config, stop *atomic.Bool) chan streamMsg {
	s.Init(w.Keys)
	ch := make(chan streamMsg, 256)
	//mtc:goroutine-joined closes ch once every session has finished; drainSessions ranges over ch to that close
	go func() {
		runSessions(s, w, cfg, stop, runTxn,
			func(si int, rec record) { ch <- streamMsg{si: si, rec: rec} },
			func(si int) { ch <- streamMsg{si: si, done: true} })
		close(ch)
	}()
	return ch
}

// drainSessions is the dispatcher loop shared by the unsharded and
// sharded verifiers: it consumes every session record, maintains the
// run's accounting (attempts, committed, aborted, the DropAborted skip,
// cancellation-to-stop), assembles the history when b is non-nil, and
// hands each record to be verified to sink.
func drainSessions(ctx context.Context, ch <-chan streamMsg, stop *atomic.Bool, cfg Config, res *StreamResult, b *history.Builder, sink func(streamMsg)) {
	for msg := range ch {
		if res.Err == nil {
			if err := ctx.Err(); err != nil {
				res.Err = err
				stop.Store(true)
			}
		}
		if msg.done {
			sink(msg)
			continue
		}
		r := msg.rec
		res.Attempts++
		if r.committed {
			res.Committed++
		} else {
			res.Aborted++
			if cfg.DropAborted {
				continue
			}
		}
		if b != nil {
			if r.committed {
				b.TimedTxn(msg.si, r.start, r.finish, r.ops...)
			} else {
				b.TimedAbortedTxn(msg.si, r.start, r.finish, r.ops...)
			}
		}
		sink(msg)
	}
}

// plannedTxns counts the workload's planned transactions.
func plannedTxns(w *workload.Workload) int {
	n := 0
	for _, specs := range w.Sessions {
		n += len(specs)
	}
	return n
}

// RunStream executes the workload with verification pipelined into the
// run: session goroutines publish every finished transaction attempt
// over a channel, and a verifier goroutine feeds them to the online
// incremental checker (core.Incremental) while also assembling the
// history. The verdict is therefore available the moment the offending
// transaction commits — Cobra-style continuous verification — and, when
// a violation is found, the sessions are signalled to stop, so a buggy
// store is caught without paying for the rest of the run. lvl must be
// SER or SI (the online checker's levels). Cancelling ctx stops the
// sessions at the next transaction boundary; the result then carries the
// context's error and the verdict over the executed prefix.
//
// With cfg.Window > 0 the checker is compacted as the stream advances
// (epoch-windowed verification): memory stays bounded by the window
// regardless of run length, the history is not assembled (StreamResult.H
// is nil), and the verdict carries the compaction stats.
//
// With cfg.Shard > 0 and a plan that decomposes into more than one
// key-disjoint session group (workload.Components — e.g. a multi-tenant
// plan), commits are routed to per-component incremental checkers driven
// by up to cfg.Shard verifier goroutines, so verification scales with
// cores instead of serialising behind one checker; Window compaction
// then applies per shard. A plan that does not decompose falls back to
// the single shared checker.
func RunStream(ctx context.Context, s *kv.Store, w *workload.Workload, cfg Config, lvl core.Level) *StreamResult {
	if cfg.Shard > 0 {
		if comps := w.Components(); len(comps) > 1 {
			return runStreamSharded(ctx, s, w, cfg, lvl, comps)
		}
	}
	res := &StreamResult{}
	inc := core.NewIncremental(lvl)
	inc.InitTxn(w.Keys...)
	// Declaring the live sessions up front arms the staleness horizon:
	// windowed compaction then never evicts a writer slot some session's
	// in-flight transaction may still read, however late its record
	// arrives relative to the other sessions'.
	for si := range w.Sessions {
		inc.ExpectSession(si)
	}
	// Windowed streams keep memory bounded: no history builder, and the
	// checker is compacted on the shared MaybeCompact cadence.
	var b *history.Builder
	if cfg.Window <= 0 {
		b = history.NewBuilder(w.Keys...)
	}
	var stop atomic.Bool
	ch := startSessions(s, w, cfg, &stop)
	drainSessions(ctx, ch, &stop, cfg, res, b, func(msg streamMsg) {
		if msg.done {
			inc.EndSession(msg.si)
			return
		}
		vio := inc.Add(history.Txn{Session: msg.si, Ops: msg.rec.ops, Committed: msg.rec.committed})
		if vio != nil && !stop.Swap(true) {
			res.ViolationAt = inc.NumTxns()
		}
		inc.MaybeCompact(cfg.Window, 0, nil)
	})
	if b != nil {
		res.H = b.Build()
	}
	res.Verdict = inc.Finalize()
	res.EarlyAborted = !res.Verdict.OK && res.Committed < plannedTxns(w)
	return res
}

// shardMsg is one routed transaction: the component it belongs to plus
// the transaction itself, or (done) a session-retirement marker for the
// component's checker.
type shardMsg struct {
	comp int
	txn  history.Txn
	sess int
	done bool
}

// runStreamSharded is the component-sharded verifier behind RunStream:
// one core.Incremental per key-disjoint session group, min(cfg.Shard,
// groups) verifier goroutines (group g is owned by worker g mod workers,
// so one group's transactions are always checked in arrival order), and
// the shared dispatcher loop routing records to the owning worker. Every
// shard compacts independently under cfg.Window.
func runStreamSharded(ctx context.Context, s *kv.Store, w *workload.Workload, cfg Config, lvl core.Level, comps [][]int) *StreamResult {
	res := &StreamResult{Shards: len(comps)}
	compOf := make([]int, len(w.Sessions))
	for i := range compOf {
		compOf[i] = -1
	}
	incs := make([]*core.Incremental, len(comps))
	// ext[ci] maps shard ci's local stream positions (its checker's
	// transaction ids) to global stream positions — the ids the
	// unsharded checker and the assembled history would assign — so the
	// merged counterexample does not leak shard-local ids. Position 0 is
	// the shard's replicated ⊥T, standing for the global init. Windowed
	// runs keep no such per-transaction state (it would break the
	// bounded-memory contract); their counterexamples stay in shard
	// positions, like everything else about a stream that retains no
	// history to cross-reference.
	var ext [][]int
	if cfg.Window <= 0 {
		ext = make([][]int, len(comps))
	}
	for ci, group := range comps {
		incs[ci] = core.NewIncremental(lvl)
		incs[ci].InitTxn(w.SessionKeys(group)...)
		if ext != nil {
			ext[ci] = append(ext[ci], 0)
		}
		for _, si := range group {
			compOf[si] = ci
			incs[ci].ExpectSession(si)
		}
	}

	var stop atomic.Bool
	// verified counts transactions the shard checkers have actually
	// ingested (starting at the per-shard inits), so a recorded
	// violation position reflects checked work, not what the dispatcher
	// has merely enqueued; concurrent shards make it exact only up to
	// the other workers' in-flight transaction.
	var verified atomic.Int64
	var violationAt atomic.Int64
	verified.Store(int64(len(comps)))

	workers := cfg.Shard
	if workers > len(comps) {
		workers = len(comps)
	}
	shardCh := make([]chan shardMsg, workers)
	var vwg sync.WaitGroup
	for wi := range shardCh {
		shardCh[wi] = make(chan shardMsg, 256)
		vwg.Add(1)
		go func(in chan shardMsg) {
			defer vwg.Done()
			for m := range in {
				inc := incs[m.comp]
				if m.done {
					inc.EndSession(m.sess)
					continue
				}
				vio := inc.Add(m.txn)
				n := verified.Add(1)
				if vio != nil && !stop.Swap(true) {
					violationAt.Store(n)
				}
				inc.MaybeCompact(cfg.Window, 0, nil)
			}
		}(shardCh[wi])
	}

	var b *history.Builder
	if cfg.Window <= 0 {
		b = history.NewBuilder(w.Keys...)
	}
	ch := startSessions(s, w, cfg, &stop)
	arrival := 0 // global stream position of the last routed txn
	drainSessions(ctx, ch, &stop, cfg, res, b, func(msg streamMsg) {
		ci := compOf[msg.si]
		if ci < 0 {
			return // session outside every planned component (no specs)
		}
		if msg.done {
			shardCh[ci%workers] <- shardMsg{comp: ci, sess: msg.si, done: true}
			return
		}
		arrival++
		if ext != nil {
			ext[ci] = append(ext[ci], arrival)
		}
		shardCh[ci%workers] <- shardMsg{comp: ci, txn: history.Txn{Session: msg.si, Ops: msg.rec.ops, Committed: msg.rec.committed}}
	})
	for _, in := range shardCh {
		close(in)
	}
	vwg.Wait()

	if b != nil {
		res.H = b.Build()
	}
	merged := core.Result{Level: lvl, OK: true}
	for ci, inc := range incs {
		r := inc.Finalize()
		merged.NumTxns += r.NumTxns
		merged.NumEdges += r.NumEdges
		merged.CompactedTxns += r.CompactedTxns
		merged.CompactedEpochs += r.CompactedEpochs
		if !r.OK && merged.OK {
			// First violating component (in component order) provides the
			// counterexample, remapped to global stream positions when the
			// run tracked them (unwindowed).
			if ext != nil {
				r = core.RemapResult(r, ext[ci])
			}
			merged.OK = false
			merged.Anomalies = r.Anomalies
			merged.Divergence = r.Divergence
			merged.Cycle = r.Cycle
		}
	}
	res.Verdict = merged
	res.ViolationAt = int(violationAt.Load())
	res.EarlyAborted = !res.Verdict.OK && res.Committed < plannedTxns(w)
	return res
}
