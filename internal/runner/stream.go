package runner

import (
	"context"
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
	// run committed (identical to batch-checking H; its transaction ids
	// are H's).
	Verdict core.Result
	// ViolationAt is the number of transactions (including ⊥T) the
	// checker had ingested when the violation surfaced mid-stream. It is
	// 0 when the run verified clean AND when the violation only became
	// decidable at Finalize (an unresolved aborted/thin-air read has no
	// single offending commit).
	ViolationAt int
	// EarlyAborted reports that the violation stopped the sessions
	// before the workload plan was exhausted.
	EarlyAborted bool
	// Err is the context's error when the run was cut short by
	// cancellation; the verdict then covers only the executed prefix.
	Err error
}

// streamMsg carries one executed transaction attempt from a session
// goroutine to RunStream's dispatcher, or (done) the marker that the
// session has published its last record and releases its
// staleness-horizon hold.
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
	//mtc:goroutine-joined closes ch once every session has finished; RunStream's dispatcher ranges over ch to that close
	go func() {
		runSessions(s, w, cfg, stop, runTxn,
			func(si int, rec record) { ch <- streamMsg{si: si, rec: rec} },
			func(si int) { ch <- streamMsg{si: si, done: true} })
		close(ch)
	}()
	return ch
}

// RunStream executes the workload with verification pipelined into the
// run: session goroutines publish every finished transaction attempt
// over a channel, and a dispatcher assembles the history and feeds each
// attempt to one online incremental checker (core.Incremental). The
// verdict is therefore available the moment the offending transaction
// commits — Cobra-style continuous verification — and, when a violation
// is found, the sessions are signalled to stop, so a buggy store is
// caught without paying for the rest of the run. lvl must be a level of
// the registry's mtc-incremental row (checker.Default.Resolve).
// Cancelling ctx stops the sessions at the next transaction boundary;
// the result then carries the context's error and the verdict over the
// executed prefix.
//
// The checker runs on the dispatcher goroutine, so it paces the
// sessions through the channel. Behind a second hop — a verifier
// goroutine, say one per tenant of a multi-tenant plan — the sessions
// overlap more, and on kv.Store that means more aborts and a slower run
// for the same plan (docs/sharding.md). A finished history decomposes
// through checker.Options.Shard instead.
//
// With cfg.Window > 0 the checker is compacted as the stream advances
// (epoch-windowed verification): memory stays bounded by the window
// regardless of run length, the history is not assembled (StreamResult.H
// is nil), and the verdict carries the compaction stats.
func RunStream(ctx context.Context, s *kv.Store, w *workload.Workload, cfg Config, lvl core.Level) *StreamResult {
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
	var b *history.Builder
	if cfg.Window <= 0 {
		b = history.NewBuilder(w.Keys...)
	}

	var stop atomic.Bool
	ingested := 1 // ⊥T
	for msg := range startSessions(s, w, cfg, &stop) {
		if res.Err == nil {
			if err := ctx.Err(); err != nil {
				res.Err = err
				stop.Store(true)
			}
		}
		if msg.done {
			inc.EndSession(msg.si)
			continue
		}
		r := msg.rec
		if !res.tally(r.committed, cfg) {
			continue
		}
		if b != nil {
			if r.committed {
				b.TimedTxn(msg.si, r.start, r.finish, r.ops...)
			} else {
				b.TimedAbortedTxn(msg.si, r.start, r.finish, r.ops...)
			}
		}
		ingested++
		if vio := inc.Add(history.Txn{Session: msg.si, Ops: r.ops, Committed: r.committed}); vio != nil && res.ViolationAt == 0 {
			res.ViolationAt = ingested
			stop.Store(true)
		}
		inc.MaybeCompact(cfg.Window, 0, nil)
	}

	if b != nil {
		res.H = b.Build()
	}
	res.Verdict = inc.Finalize()
	res.EarlyAborted = !res.Verdict.OK && res.Committed < w.NumTxns()
	return res
}
