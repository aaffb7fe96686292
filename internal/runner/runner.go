// Package runner is the client harness of the black-box checking workflow
// (Figure 2, steps 1-3): it drives a workload plan against a kv.Store with
// one goroutine per session, records each session's requests and results,
// handles aborts with bounded retries, and combines the per-session logs
// into a single history for verification.
//
// Unique write values are produced by combining the session (client)
// identifier with a local counter, exactly as Section II-A prescribes, so
// every committed write of a key carries a distinct value.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/workload"
)

// Config tunes an execution run.
type Config struct {
	// Retries bounds re-executions of a conflicted transaction (0 = give
	// up immediately). Each retry is a fresh transaction with fresh write
	// values.
	Retries int
	// DropAborted leaves aborted transactions out of the history. The
	// default (false) records them: they are needed to detect G1a
	// AbortedRead.
	DropAborted bool
	// OpDelay simulates per-operation client/server latency as busy-loop
	// iterations (a stand-in for the network round-trip that makes real
	// client sessions overlap). 0 uses a default that yields the
	// scheduler after every operation.
	OpDelay int
	// Window bounds the memory of a streaming run (RunStream only): the
	// online checker is compacted every Window/2 committed observations,
	// keeping O(Window) verification state instead of O(run), and the
	// run's history is not retained (StreamResult.H is nil). 0 verifies
	// unbounded. The window must exceed the store's maximum commit
	// staleness for verdict parity; see core.Incremental.Compact.
	Window int
	// Shard splits a streaming run's verification by component
	// (RunStream only): the workload plan is decomposed into key-disjoint
	// session groups (workload.Components) and up to Shard verifiers
	// check the groups concurrently, each group with its own
	// core.Incremental — and, when Window > 0, its own epoch compaction.
	// The merged verdict's OK equals the unsharded stream's (no
	// dependency edge crosses components). 0, or a plan that does not
	// split, checks every session as one group on one verifier.
	Shard int
}

// Result is the outcome of a run.
type Result struct {
	H *history.History
	// Attempts counts executed transactions including retries; Committed
	// those that committed.
	Attempts  int
	Committed int
	Aborted   int
}

// AbortRate returns aborted / attempts for this run.
func (r *Result) AbortRate() float64 {
	if r.Attempts == 0 {
		return 0
	}
	return float64(r.Aborted) / float64(r.Attempts)
}

// tally counts one executed attempt and reports whether it belongs in
// the history: an aborted attempt does not under cfg.DropAborted.
func (r *Result) tally(committed bool, cfg Config) bool {
	r.Attempts++
	if committed {
		r.Committed++
		return true
	}
	r.Aborted++
	return !cfg.DropAborted
}

// record is one executed transaction attempt as logged by a session.
type record struct {
	ops       []history.Op
	start     int64
	finish    int64
	committed bool
}

// uniqueValue builds the session-scoped unique value for the n-th write of
// session s. Sessions are capped at 1<<20 writes each.
func uniqueValue(session, n int) history.Value {
	return history.Value(int64(session+1)<<20 | int64(n+1))
}

// runSessions drives the plan with one goroutine per session, all
// released together. A session runs its specs serially: exec executes
// each until it commits or cfg.Retries re-executions are spent, and every
// attempt goes to emit on the session's own goroutine — so emit(si, ·)
// calls are ordered within a session and concurrent across sessions.
// Once stop (may be nil) is set, sessions end at their next attempt
// boundary. done (may be nil) runs as each session's last act.
// runSessions returns when every session has finished.
func runSessions[R any](s *kv.Store, w *workload.Workload, cfg Config, stop *atomic.Bool,
	exec func(s *kv.Store, si int, spec workload.TxnSpec, values *int, spin int) (R, bool),
	emit func(si int, rec R), done func(si int)) {
	stopped := func() bool { return stop != nil && stop.Load() }
	start := make(chan struct{}) // barrier: all sessions begin together
	var wg sync.WaitGroup
	for si := range w.Sessions {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			if done != nil {
				defer done(si)
			}
			<-start
			values := 0
			for _, spec := range w.Sessions[si] {
				if stopped() {
					return
				}
				for attempt := 0; ; attempt++ {
					rec, ok := exec(s, si, spec, &values, cfg.OpDelay)
					emit(si, rec)
					if ok || attempt >= cfg.Retries || stopped() {
						break
					}
				}
			}
		}(si)
	}
	close(start)
	wg.Wait()
}

// Run executes the workload against the store and returns the combined
// history. The store is initialized with value 0 for every key in the
// plan (the initial transaction ⊥T).
func Run(s *kv.Store, w *workload.Workload, cfg Config) *Result {
	s.Init(w.Keys)
	perSession := make([][]record, len(w.Sessions))
	runSessions(s, w, cfg, nil, runTxn,
		func(si int, r record) { perSession[si] = append(perSession[si], r) }, nil)

	res := &Result{}
	b := history.NewBuilder(w.Keys...)
	for si, recs := range perSession {
		for _, r := range recs {
			if !res.tally(r.committed, cfg) {
				continue
			}
			if r.committed {
				b.TimedTxn(si, r.start, r.finish, r.ops...)
			} else {
				b.TimedAbortedTxn(si, r.start, r.finish, r.ops...)
			}
		}
	}
	res.H = b.Build()
	return res
}

// spinSink defeats dead-code elimination of the busy-delay loop; sessions
// write it concurrently, hence the atomic.
var spinSink atomic.Int64

// latency simulates the client-server round trip: yield the scheduler so
// concurrent sessions interleave, plus an optional busy delay.
func latency(spin int) {
	runtime.Gosched()
	var acc int64
	for i := 0; i < spin; i++ {
		acc += int64(i)
	}
	if acc != 0 {
		spinSink.Store(acc)
	}
}

// runTxn executes a single transaction attempt. It returns the record and
// whether the transaction committed.
func runTxn(s *kv.Store, session int, spec workload.TxnSpec, values *int, spin int) (record, bool) {
	tx := s.Begin()
	ok := true
	for _, op := range spec.Ops {
		latency(spin)
		var err error
		switch op.Kind {
		case workload.SpecRead:
			_, err = tx.Read(op.Key)
		case workload.SpecWrite:
			err = tx.Write(op.Key, uniqueValue(session, *values))
			*values++
		case workload.SpecRMW:
			if _, err = tx.Read(op.Key); err == nil {
				err = tx.Write(op.Key, uniqueValue(session, *values))
				*values++
			}
		case workload.SpecAppend:
			err = tx.Append(op.Key, uniqueValue(session, *values))
			*values++
		case workload.SpecReadList:
			_, err = tx.ReadList(op.Key)
		}
		if err != nil {
			ok = false
			break
		}
	}
	if ok {
		ok = tx.Commit() == nil
	}
	return record{
		ops:       tx.Ops(),
		start:     tx.StartTS(),
		finish:    tx.FinishTS(),
		committed: tx.Committed(),
	}, ok
}
