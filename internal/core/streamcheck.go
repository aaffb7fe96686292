package core

import (
	"context"
	"io"

	"mtc/internal/history"
)

// TxnSource yields transactions in arrival order, one at a time, ending
// with io.EOF. history.StreamReader implements it over the NDJSON
// encoding; tests implement it over in-memory histories.
type TxnSource interface {
	Next() (history.Txn, error)
}

// SessionDeclarer is implemented by sources that know the stream's
// session count before the first record (the NDJSON header declares
// it). CheckStreamCtx then arms the checker's staleness horizon for
// every session up front, making windowed verdicts of ingestion-ordered
// captures exact instead of contingent on the window outrunning the
// stream's commit-to-ingest skew.
type SessionDeclarer interface {
	DeclaredSessions() int
}

// CheckStreamCtx verifies a transaction stream without ever
// materialising the history: each transaction is decoded, fed to the
// online checker and released, so a multi-gigabyte NDJSON capture
// verifies in O(window + boundary) memory when window > 0 (and O(stream)
// when window <= 0, matching the unbounded incremental check). ctx is
// polled between batches; every tunes the compaction cadence exactly
// like Incremental.MaybeCompact (0 picks window/2).
//
// A record with a negative session number is the init transaction and
// must be first (the NDJSON convention). The stream is verified under
// the epoch contract of Incremental.Compact, with the staleness horizon
// armed for every session the source declares up front (and lazily for
// any session that first appears mid-stream): compaction then never
// evicts a writer slot a declared session's in-flight transaction may
// still read, so windowed verdicts of captures written in ingestion
// order match the unbounded check exactly. Sessions a stream does not
// declare are only protected from their first record onward; a stale
// read outside that protection parks and is reported as ThinAirRead
// rather than silently mis-verified.
func CheckStreamCtx(ctx context.Context, src TxnSource, lvl Level, window, every int) (Result, error) {
	inc := NewIncremental(lvl)
	armed := 0
	arm := func(sessions int) {
		for ; armed < sessions; armed++ {
			inc.ExpectSession(armed)
		}
	}
	if d, ok := src.(SessionDeclarer); ok {
		arm(d.DeclaredSessions())
	}
	i := 0
	for {
		if i&511 == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		t, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Result{}, err
		}
		arm(t.Session + 1)
		if vio := inc.add(t, i == 0 && t.Session < 0); vio != nil {
			return *vio, nil
		}
		inc.MaybeCompact(window, every, nil)
		i++
	}
	return inc.Finalize(), nil
}
