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
// goroutine through the dispatcher to its group's verifier, or (done) the
// marker that the session has published its last record and releases
// its staleness-horizon hold.
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
	//mtc:goroutine-joined closes ch once every session has finished; RunStream's drainSessions ranges over ch to that close
	go func() {
		runSessions(s, w, cfg, stop, runTxn,
			func(si int, rec record) { ch <- streamMsg{si: si, rec: rec} },
			func(si int) { ch <- streamMsg{si: si, done: true} })
		close(ch)
	}()
	return ch
}

// drainSessions is RunStream's dispatcher loop: it consumes every session
// record, maintains the run's accounting (Result.tally, and cancellation
// to stop), assembles the history when b is non-nil, and hands each
// record it keeps, and each done marker, to route.
func drainSessions(ctx context.Context, ch <-chan streamMsg, stop *atomic.Bool, cfg Config, res *StreamResult, b *history.Builder, route func(streamMsg)) {
	for msg := range ch {
		if res.Err == nil {
			if err := ctx.Err(); err != nil {
				res.Err = err
				stop.Store(true)
			}
		}
		if !msg.done {
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
		}
		route(msg)
	}
}

// RunStream executes the workload with verification pipelined into the
// run: session goroutines publish every finished transaction attempt
// over a channel, and a dispatcher assembles the history and hands each
// attempt to the verifier of its session group, which feeds it to the
// group's online incremental checker (core.Incremental). The verdict is
// therefore available the moment the offending transaction commits —
// Cobra-style continuous verification — and, when a violation is found,
// the sessions are signalled to stop, so a buggy store is caught without
// paying for the rest of the run. lvl must be a level of the registry's
// mtc-incremental row (checker.Default.Resolve). Cancelling ctx stops
// the sessions at the next transaction boundary; the result then
// carries the context's error and the verdict over the executed prefix.
//
// The plan is checked per key-disjoint session group, one
// core.Incremental per group, each owned by one of min(max(cfg.Shard,
// 1), groups) verifiers (group g by verifier g mod verifiers, so one
// group's transactions are checked in arrival order). A single verifier
// runs on the dispatcher goroutine; more run on their own goroutines.
// With cfg.Shard > 0 and a plan that workload.Components splits — e.g. a
// multi-tenant plan — the groups are its components, so verification
// scales with cores instead of serialising behind one checker. Otherwise
// every session is in one group and StreamResult.Shards stays 0.
//
// With cfg.Window > 0 every group's checker is compacted as the stream
// advances (epoch-windowed verification): memory stays bounded by the
// window regardless of run length, the history is not assembled
// (StreamResult.H is nil), and the verdict carries the compaction stats.
func RunStream(ctx context.Context, s *kv.Store, w *workload.Workload, cfg Config, lvl core.Level) *StreamResult {
	res := &StreamResult{}
	var groups [][]int
	if cfg.Shard > 0 {
		if groups = w.Components(); len(groups) > 1 {
			res.Shards = len(groups)
		}
	}
	if res.Shards == 0 {
		all := make([]int, len(w.Sessions))
		for si := range all {
			all[si] = si
		}
		groups = [][]int{all}
	}
	compOf := make([]int, len(w.Sessions))
	for i := range compOf {
		compOf[i] = -1
	}
	incs := make([]*core.Incremental, len(groups))
	// ext[g] maps group g's local stream positions (its checker's
	// transaction ids) to global stream positions — the ids the assembled
	// history assigns — so the merged counterexample does not leak
	// group-local ids. Position 0 is the group's ⊥T, standing for the
	// global init. Windowed runs keep no such per-transaction state (it
	// would break the bounded-memory contract); their counterexamples
	// stay in group positions, like everything else about a stream that
	// retains no history to cross-reference.
	var ext [][]int
	if cfg.Window <= 0 {
		ext = make([][]int, len(groups))
	}
	for gi, group := range groups {
		// A key no session of the group touches has no reader and no
		// writer, so seeding ⊥T with the group's keys alone loses no edge.
		incs[gi] = core.NewIncremental(lvl)
		incs[gi].InitTxn(w.SessionKeys(group)...)
		if ext != nil {
			ext[gi] = append(ext[gi], 0)
		}
		// Declaring the live sessions up front arms the staleness
		// horizon: windowed compaction then never evicts a writer slot
		// some session's in-flight transaction may still read, however
		// late its record arrives relative to the other sessions'.
		for _, si := range group {
			compOf[si] = gi
			incs[gi].ExpectSession(si)
		}
	}

	var stop atomic.Bool
	// verified counts transactions the checkers have actually ingested
	// (starting at the per-group inits), so a recorded violation position
	// reflects checked work, not what the dispatcher has merely enqueued;
	// concurrent groups make it exact only up to the other workers'
	// in-flight transaction.
	var verified, violationAt atomic.Int64
	verified.Store(int64(len(groups)))

	// verify is the group worker, the one place a record reaches a
	// checker.
	verify := func(m streamMsg) {
		inc := incs[compOf[m.si]]
		if m.done {
			inc.EndSession(m.si)
			return
		}
		vio := inc.Add(history.Txn{Session: m.si, Ops: m.rec.ops, Committed: m.rec.committed})
		n := verified.Add(1)
		if vio != nil && !stop.Swap(true) {
			violationAt.Store(n)
		}
		inc.MaybeCompact(cfg.Window, 0, nil)
	}
	// A single verifier runs on the dispatcher goroutine, so the checker
	// paces the sessions through ch. Behind a second hop the sessions
	// overlap more, and on kv.Store that means more aborts and a slower
	// run for the same plan.
	route := verify
	var in []chan streamMsg
	var vwg sync.WaitGroup
	if workers := min(cfg.Shard, len(groups)); workers > 1 {
		in = make([]chan streamMsg, workers)
		for wi := range in {
			in[wi] = make(chan streamMsg, 256) // as ch: absorbs a worker's compaction pause
			vwg.Add(1)
			go func(in chan streamMsg) {
				defer vwg.Done()
				for m := range in {
					verify(m)
				}
			}(in[wi])
		}
		route = func(m streamMsg) { in[compOf[m.si]%workers] <- m }
	}

	var b *history.Builder
	if cfg.Window <= 0 {
		b = history.NewBuilder(w.Keys...)
	}
	ch := startSessions(s, w, cfg, &stop)
	arrival := 0 // global stream position of the last routed txn
	drainSessions(ctx, ch, &stop, cfg, res, b, func(msg streamMsg) {
		gi := compOf[msg.si]
		if gi < 0 {
			return // session outside every planned component (no specs)
		}
		if !msg.done {
			arrival++
			if ext != nil {
				ext[gi] = append(ext[gi], arrival)
			}
		}
		route(msg)
	})
	for _, c := range in {
		close(c)
	}
	vwg.Wait()

	if b != nil {
		res.H = b.Build()
	}
	merged := core.Result{Level: lvl, OK: true}
	for gi, inc := range incs {
		r := inc.Finalize()
		merged.NumTxns += r.NumTxns
		merged.NumEdges += r.NumEdges
		merged.CompactedTxns += r.CompactedTxns
		merged.CompactedEpochs += r.CompactedEpochs
		if !r.OK && merged.OK {
			// The first violating group (in group order) provides the
			// counterexample, remapped to global stream positions when the
			// run tracked them (unwindowed).
			if ext != nil {
				r = core.RemapResult(r, ext[gi])
			}
			merged.OK = false
			merged.Anomalies = r.Anomalies
			merged.Divergence = r.Divergence
			merged.Cycle = r.Cycle
		}
	}
	res.Verdict = merged
	res.ViolationAt = int(violationAt.Load())
	res.EarlyAborted = !res.Verdict.OK && res.Committed < w.NumTxns()
	return res
}
