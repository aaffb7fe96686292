package core

import (
	"context"
	"sort"

	"mtc/internal/history"
)

// CheckIncrementalWindowedCtx replays a complete history through the
// online checker and returns its verdict; it decides the same predicate
// as CheckCtx at levels SER and SI, violating prefixes permitting early
// exit.
//
// Transactions are fed in commit (Finish timestamp) order — the order a
// live stream would deliver them — rather than History.Txns order, which
// interleaves sessions in per-session blocks and would force the online
// order into its worst case. ⊥T is fed first whatever its stamps: every
// session's first transaction follows it in session order. The sort is
// stable, so session order is preserved (Finish is monotone within a
// session) and untimed histories replay exactly in ID order. ctx is
// polled between batches, and counterexample transaction IDs are mapped
// back to History.Txns indices before returning.
//
// window > 0 bounds the replay's memory: the stream is compacted every
// window/2 transactions (MaybeCompact's shared cadence) so at most
// O(window + boundary) transactions are materialised at any moment. The
// verdicts, anomalies and first-offending commit are identical to the
// unbounded replay (window <= 0) on every history, not just well-behaved
// ones, because the replay driver knows the future: a pre-scan computes,
// for every transaction, the last stream position that still references
// any value it participates in, and pins it across compactions until
// then.
func CheckIncrementalWindowedCtx(ctx context.Context, h *history.History, lvl Level, window int) (Result, error) {
	order := make([]int, len(h.Txns))
	for i := range order {
		order[i] = i
	}
	rest := order
	if h.HasInit && len(order) > 0 {
		rest = order[1:]
	}
	sort.SliceStable(rest, func(a, b int) bool {
		return h.Txns[rest[a]].Finish < h.Txns[rest[b]].Finish
	})
	var keepUntil []int
	if window > 0 {
		keepUntil = futureRefs(h, order)
	}
	inc := NewIncremental(lvl)
	perm := make([]int, 0, len(order)) // arrival position -> original ID
	for i, id := range order {
		if i&511 == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		perm = append(perm, id)
		if vio := inc.add(h.Txns[id], h.HasInit && id == 0); vio != nil {
			return RemapResult(*vio, perm), nil
		}
		if window > 0 {
			fed := i + 1
			inc.MaybeCompact(window, 0, func(e int) bool { return keepUntil[e] >= fed })
		}
	}
	return RemapResult(inc.Finalize(), perm), nil
}

// futureRefs computes, per arrival position, the last arrival position
// that still references a value the transaction participates in — as
// the writer (committed or aborted), a reader, or a duplicate writer.
// Compacting at stream position p may only collapse transactions whose
// entry is below p: everything the remaining suffix can read from,
// write-conflict with, or need for anomaly classification stays pinned,
// which is the exact finalized-prefix condition of the epoch contract.
func futureRefs(h *history.History, order []int) []int {
	type use struct {
		touched   []int // positions that read or write the version
		committed bool  // some committed transaction wrote it
		lastRef   int   // last position referencing it, plus one; 0 if none
	}
	n := len(order)
	uses := make(map[write]*use, n) // by version
	for p, id := range order {
		t := &h.Txns[id]
		for _, op := range t.Ops {
			u := uses[write{op.Key, op.Value}]
			if u == nil {
				u = &use{}
				uses[write{op.Key, op.Value}] = u
			}
			u.touched = append(u.touched, p)
			switch {
			case op.Kind == history.OpRead, t.Committed && u.committed:
				// A read — or a duplicate write, which the first writer
				// must survive to p for the unique-value check to fire
				// identically — references the version.
				u.lastRef = p + 1
			case t.Committed:
				u.committed = true
			}
			// An aborted writer neither claims the value nor references
			// it, but AbortedRead classification needs it alive.
		}
	}
	keepUntil := make([]int, n)
	//mtc:nondeterministic-ok maximum fold into keepUntil; max is commutative
	for _, u := range uses {
		if u.lastRef == 0 {
			continue
		}
		ref := u.lastRef - 1
		if !u.committed {
			// Read of a value no committed transaction ever wrote: its
			// aborted writer (if any) decides AbortedRead vs ThinAirRead
			// at Finalize, so it must survive the whole stream.
			ref = n
		}
		for _, q := range u.touched {
			if keepUntil[q] < ref {
				keepUntil[q] = ref
			}
		}
	}
	return keepUntil
}
