package fabric

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"mtc/internal/checker"
	"mtc/internal/history"
)

// The write-ahead log is an NDJSON file in the PR 6 streaming-codec
// discipline: a self-identifying header line, one record per line, and
// the trailing '\n' of every record doubling as its integrity check. A
// torn final line — the signature of a crash mid-append — is discarded
// on replay rather than treated as corruption; a malformed line earlier
// in the file is an error, because records before a valid record cannot
// have been torn by the crash that ended the file.
//
// Record types:
//
//	job     a submitted job: id, engine, options and the full history
//	assign  a component dispatched to a worker under a fresh epoch
//	requeue a component re-enqueued (worker death) under a fresh epoch
//	result  an accepted component verdict at its dispatch epoch
//	done    the folded whole-job verdict (replay serves it, never re-runs)
//	fail    a terminal job failure (engine error or cancellation)
//
// Epochs only grow within and across records, so replay restores each
// component's current epoch as the maximum it has seen — a straggler
// from before the restart can never fold into a resumed job.
const walHeader = `{"format":"mtc-fabric-wal","version":1}`

// Record types.
const (
	recJob     = "job"
	recAssign  = "assign"
	recRequeue = "requeue"
	recResult  = "result"
	recDone    = "done"
	recFail    = "fail"
)

// walRecord is one WAL line. Fields are a union over the record types;
// Component and Epoch carry no omitempty because component 0 at epoch 0
// must round-trip.
type walRecord struct {
	Type string `json:"type"`
	Job  string `json:"job"`

	// recJob payload.
	Checker     string           `json:"checker,omitempty"`
	Level       string           `json:"level,omitempty"`
	Parallelism int              `json:"parallelism,omitempty"`
	Window      int              `json:"window,omitempty"`
	History     *history.History `json:"history,omitempty"`

	// recAssign / recRequeue / recResult payload.
	Component int    `json:"component"`
	Epoch     int    `json:"epoch"`
	Worker    string `json:"worker,omitempty"`

	// recResult / recDone payload; Error for recFail.
	Report *checker.Report `json:"report,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// wal appends records durably to an NDJSON log. Safe for concurrent use.
type wal struct {
	f  *os.File
	bw *bufio.Writer
}

// openWAL opens (creating if absent) the log at path, replays every
// intact record, and positions the file for appending. A torn final
// line is dropped and the file truncated back to the last intact
// record, so the next append starts on a clean boundary.
func openWAL(path string) (*wal, []walRecord, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	recs, intact, err := replayWAL(f)
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	if err := f.Truncate(intact); err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(intact, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	w := &wal{f: f, bw: bufio.NewWriter(f)}
	if intact == 0 {
		if err := w.writeLine([]byte(walHeader)); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
	}
	return w, recs, nil
}

// replayWAL parses the log, returning the intact records and the byte
// offset just past the last intact line. An empty file is a fresh log.
func replayWAL(f *os.File) ([]walRecord, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	br := bufio.NewReader(f)
	var (
		recs   []walRecord
		intact int64
		lineNo int
	)
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			// Data without a terminator is a torn append: drop it.
			return recs, intact, nil
		}
		if err != nil {
			return nil, 0, err
		}
		lineNo++
		n := int64(len(line))
		line = bytes.TrimRight(line, "\r\n")
		if lineNo == 1 {
			var hdr struct {
				Format  string `json:"format"`
				Version int    `json:"version"`
			}
			if err := json.Unmarshal(line, &hdr); err != nil || hdr.Format != "mtc-fabric-wal" {
				return nil, 0, fmt.Errorf("fabric: wal: not an mtc-fabric-wal file")
			}
			if hdr.Version != 1 {
				return nil, 0, fmt.Errorf("fabric: wal: unsupported version %d", hdr.Version)
			}
			intact += n
			continue
		}
		if len(bytes.TrimSpace(line)) == 0 {
			intact += n
			continue
		}
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A malformed terminated line is corruption, not a torn
			// append — refuse to resume over it.
			return nil, 0, fmt.Errorf("fabric: wal: line %d: %w", lineNo, err)
		}
		recs = append(recs, rec)
		intact += n
	}
}

// append marshals rec as one line and makes it durable before
// returning: the record is the crash-recovery source of truth, so a
// torn or buffered write must never be reported as logged.
func (w *wal) append(rec walRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return w.write(line)
}

// write is append for a record already marshalled: by a caller that
// encodes before taking the lock that orders the log (Submit: a job
// record carries the whole history).
func (w *wal) write(line []byte) error {
	if err := w.writeLine(line); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *wal) writeLine(line []byte) error {
	if _, err := w.bw.Write(line); err != nil {
		return err
	}
	if err := w.bw.WriteByte('\n'); err != nil {
		return err
	}
	return w.bw.Flush()
}

// Close flushes and closes the log file; the error matters (a failed
// final flush is a lost record).
func (w *wal) Close() error {
	if err := w.bw.Flush(); err != nil {
		_ = w.f.Close()
		return err
	}
	return w.f.Close()
}
