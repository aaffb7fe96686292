package core

import (
	"context"
	"fmt"
	"io"

	"mtc/internal/history"
)

// CheckStreamCtx verifies a transaction stream without ever
// materialising the history. A goroutine of its own decodes the stream
// ahead of the online checker, readAheadBatch transactions at a time and
// never more than readAheadDepth+2 batches (1 024 transactions) ahead, so
// decode and check overlap, and a multi-gigabyte capture verifies in
// O(window + boundary) memory when window > 0 (and O(stream) when window
// <= 0, matching the unbounded incremental check). The checker consumes
// each batch in stream order before it looks at the error that ended it,
// so a violation recorded before a codec error is the verdict. ctx is
// polled between batches; every tunes the compaction cadence exactly
// like Incremental.MaybeCompact (0 picks window/2).
//
// Every return stops the decoding goroutine and waits for it: src is
// never touched after CheckStreamCtx returns. A source blocked inside
// Next therefore delays a return — on a violation or a cancelled ctx —
// until that call comes back, and on a live source a verdict waits for
// the rest of its batch (or the end of the stream) to arrive.
//
// A record with a negative session number is the init transaction and
// must be first (the TxnStream convention). Every record is held to
// history.CheckTxn, as a batch read's Validate holds it, and one that
// fails ends the check with an error. The stream is verified under
// the epoch contract of Incremental.Compact, with the staleness horizon
// armed for every session the source declares up front, and for any
// other session at its first record: compaction then never evicts a
// writer slot a declared session's in-flight transaction may still read,
// so windowed verdicts of captures written in ingestion order match the
// unbounded check exactly. Sessions a stream does not declare are only
// protected from their first record onward; a stale read outside that
// protection parks and is reported as ThinAirRead rather than silently
// mis-verified.
func CheckStreamCtx(ctx context.Context, src history.TxnStream, lvl Level, window, every int) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	inc := NewIncremental(lvl)
	declared := src.DeclaredSessions()
	for s := range declared {
		inc.ExpectSession(s)
	}
	var ra readAhead
	ra.start(src)
	defer ra.stop()
	i := 0
	for {
		b := <-ra.full
		for _, t := range b.txns {
			if err := history.CheckTxn(&t); err != nil {
				return Result{}, fmt.Errorf("history: T%d %w", t.ID, err)
			}
			if t.Session >= declared {
				inc.ExpectSession(t.Session)
			}
			if vio := inc.add(t, i == 0 && t.Session < 0); vio != nil {
				return *vio, nil
			}
			inc.MaybeCompact(window, every, nil)
			i++
		}
		if b.err == io.EOF {
			return inc.Finalize(), nil
		}
		if b.err != nil {
			return Result{}, b.err
		}
		ra.free <- b
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
}

// The read-ahead's bounds: a batch is the unit handed from the decoding
// goroutine to the checker, and at most readAheadDepth filled batches
// wait between them — plus the one being filled and the one being
// checked.
const (
	readAheadBatch = 256
	readAheadDepth = 2
)

// txnBatch is up to readAheadBatch transactions in stream order and the
// error that ended the batch early: io.EOF at the end of the stream,
// nil for a full batch.
type txnBatch struct {
	txns []history.Txn
	err  error
}

// readAhead runs src.Next on a goroutine of its own, filling batches
// the consumer receives from full in stream order and hands back
// through free once it has read them.
type readAhead struct {
	full chan *txnBatch // filled batches; closed when the filler exits
	// free holds consumed batches for reuse: a fresh batch per 256
	// transactions would add 64 bytes of garbage to each. Its capacity is
	// every batch that can exist at once, so handing one back never
	// blocks.
	free chan *txnBatch
	done chan struct{} // closed by stop: fill exits without another Next
}

// start begins filling batches from src; every start is paired with a
// stop.
func (ra *readAhead) start(src history.TxnStream) {
	ra.full = make(chan *txnBatch, readAheadDepth)
	ra.free = make(chan *txnBatch, readAheadDepth+2)
	ra.done = make(chan struct{})
	go ra.fill(src)
}

// fill decodes src into batches until it meets an error (io.EOF
// included), which ends the last batch, or until stop.
func (ra *readAhead) fill(src history.TxnStream) {
	defer close(ra.full)
	for {
		var b *txnBatch
		select {
		case b = <-ra.free:
			b.txns = b.txns[:0]
		default:
			b = &txnBatch{txns: make([]history.Txn, 0, readAheadBatch)}
		}
		for len(b.txns) < readAheadBatch && b.err == nil {
			t, err := src.Next()
			if err != nil {
				b.err = err
			} else {
				b.txns = append(b.txns, t)
			}
			select {
			case <-ra.done:
				return
			default:
			}
		}
		select {
		case ra.full <- b:
		case <-ra.done:
			return
		}
		if b.err != nil {
			return
		}
	}
}

// stop ends the read-ahead and returns once fill has exited, so nothing
// calls src.Next after it.
func (ra *readAhead) stop() {
	close(ra.done)
	for range ra.full {
	}
}
