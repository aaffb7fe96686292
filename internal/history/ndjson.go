package history

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// NDJSONHeader is the first line of the streaming NDJSON encoding: a
// self-identifying JSON object that lets ReadAuto tell the format apart
// from a whole-file JSON document without consuming the stream. Writers
// that know the session count up front declare it in the header
// ("sessions":N), which lets a windowed streaming check arm its
// staleness horizon for every session before the first record arrives.
const NDJSONHeader = `{"format":"mtc-ndjson","version":1}`

// The streaming NDJSON format holds one transaction per line — the
// header line above, then each Txn as a single-line JSON object in
// arrival order, every line terminated by '\n'. The init transaction,
// when present, comes first with "sess":-1; session lists are rebuilt
// from the per-transaction session numbers. Unlike the whole-file JSON codec, a consumer can
// verify a history of any length while holding a constant number of
// transactions: core.CheckStreamCtx reads StreamReader.Next a bounded
// read-ahead in front of core.Incremental, composing with epoch-windowed
// compaction into a bounded-memory pipeline. The
// trailing newline of every record doubles as the integrity check — a
// truncated final line is rejected, never silently dropped.

// StreamWriter emits a history one transaction at a time.
type StreamWriter struct {
	bw *bufio.Writer
	n  int
}

// NewStreamWriter starts a streaming NDJSON document on w by emitting
// the header line. sessions > 0 declares the stream's session count in
// the header; pass 0 when it is not known up front.
func NewStreamWriter(w io.Writer, sessions int) (*StreamWriter, error) {
	sw := &StreamWriter{bw: bufio.NewWriter(w)}
	header := NDJSONHeader
	if sessions > 0 {
		header = fmt.Sprintf(`{"format":"mtc-ndjson","version":1,"sessions":%d}`, sessions)
	}
	if _, err := sw.bw.WriteString(header + "\n"); err != nil {
		return nil, err
	}
	return sw, nil
}

// WriteTxn appends one transaction under the contract both readers keep
// (checkRecord): dense ids in order, sessions from -1 to maxSessions,
// and -1 (the init transaction) only first.
func (sw *StreamWriter) WriteTxn(t Txn) error {
	if err := checkRecord("ndjson: line", sw.n+2, t.ID, t.Session, sw.n); err != nil {
		return err
	}
	buf, err := json.Marshal(&t)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if _, err := sw.bw.Write(buf); err != nil {
		return err
	}
	sw.n++
	return nil
}

// Flush writes any buffered records through to the underlying writer.
func (sw *StreamWriter) Flush() error { return sw.bw.Flush() }

// WriteNDJSON serializes the whole history in the streaming NDJSON
// format (the one-shot counterpart of StreamWriter).
func WriteNDJSON(w io.Writer, h *History) error {
	sw, err := NewStreamWriter(w, len(h.Sessions))
	if err != nil {
		return err
	}
	for i := range h.Txns {
		t := h.Txns[i]
		if h.HasInit && i == 0 {
			t.Session = -1
		}
		if err := sw.WriteTxn(t); err != nil {
			return err
		}
	}
	return sw.Flush()
}

// StreamReader yields the transactions of a streaming NDJSON document
// one at a time, transparently decompressing gzip input (sniffed by
// magic bytes, like ReadAuto).
//
// Lines in the canonical spelling (what StreamWriter emits) are decoded
// in place by scanTxn into the reader's arena; any other line goes
// through encoding/json with unknown fields disallowed.
type StreamReader struct {
	br       *bufio.Reader
	spill    []byte // reused across the lines too long for br's buffer
	arena    *IngestArena
	line     int
	next     int
	declared int
	keyed    bool  // the last record was scanned, not decoded
	err      error // the first error, io.EOF included: terminal
}

// ndjsonReadBuf sizes the line buffer: records are scanned where
// ReadSlice finds them, so it bounds the longest line that needs no
// copy (a 2 000-op init record is ~60 KB).
const ndjsonReadBuf = 64 << 10

// NewStreamReader validates the header line and positions the reader at
// the first transaction record.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br, err := gunzip(bufio.NewReaderSize(r, ndjsonReadBuf), "history: ndjson")
	if err != nil {
		return nil, err
	}
	sr := &StreamReader{br: br, arena: &IngestArena{it: newInterner(), ids: []KeyID{}}}
	header, err := sr.readLine()
	if err != nil {
		return nil, fmt.Errorf("history: ndjson: missing header: %w", err)
	}
	var hdr struct {
		Format   string `json:"format"`
		Version  int    `json:"version"`
		Sessions int    `json:"sessions"`
	}
	if err := json.Unmarshal(header, &hdr); err != nil || hdr.Format != "mtc-ndjson" {
		return nil, fmt.Errorf("history: ndjson: not an mtc-ndjson stream")
	}
	if hdr.Version != 1 {
		return nil, fmt.Errorf("history: ndjson: unsupported version %d", hdr.Version)
	}
	if hdr.Sessions < 0 || hdr.Sessions > maxSessions {
		return nil, fmt.Errorf("history: ndjson: implausible session count %d", hdr.Sessions)
	}
	sr.declared = hdr.Sessions
	return sr, nil
}

// DeclaredSessions returns the session count the header declared, or 0
// when the writer did not know it up front.
func (sr *StreamReader) DeclaredSessions() int { return sr.declared }

// readLine returns the next newline-terminated line without the
// terminator, valid until the next call. A final line with data but no
// terminator is a truncated record and is rejected rather than parsed.
func (sr *StreamReader) readLine() ([]byte, error) {
	line, err := sr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		sr.spill = append(sr.spill[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = sr.br.ReadSlice('\n')
			sr.spill = append(sr.spill, line...)
		}
		line = sr.spill
	}
	if err == io.EOF {
		if len(line) > 0 {
			return nil, fmt.Errorf("history: ndjson: truncated record at line %d", sr.line+1)
		}
		return nil, io.EOF
	}
	if err != nil {
		return nil, err
	}
	sr.line++
	return bytes.TrimRight(line, "\r\n"), nil
}

// Next returns the next transaction in stream order, or io.EOF when the
// document is exhausted cleanly. Records must carry dense in-order IDs
// and sessions from -1 to maxSessions; a session of -1 marks the init
// transaction and is only legal first (checkRecord).
// The first error is terminal (see TxnStream).
func (sr *StreamReader) Next() (Txn, error) {
	if sr.err != nil {
		return Txn{}, sr.err
	}
	t, err := sr.read()
	sr.err = err
	return t, err
}

func (sr *StreamReader) read() (Txn, error) {
	for {
		line, err := sr.readLine()
		if err != nil {
			return Txn{}, err
		}
		sr.arena.ids = sr.arena.ids[:0]
		t, ok := scanTxn(line, sr.arena)
		sr.keyed = ok
		if !ok {
			if len(bytes.TrimSpace(line)) == 0 {
				continue // blank separator lines are tolerated
			}
			if t, err = sr.decode(line); err != nil {
				return Txn{}, err
			}
		}
		if err := checkRecord("ndjson: line", sr.line, t.ID, t.Session, sr.next); err != nil {
			return Txn{}, err
		}
		sr.next++
		return t, nil
	}
}

// KeyIDs returns the ids the reader's arena gave the keys of the
// transaction Next last returned, op by op, and the arena's generation
// (IngestArena.gen), valid until the next Next: nil for a line
// encoding/json decoded, and mixing two generations on the line where
// the generation moved on.
func (sr *StreamReader) KeyIDs() ([]KeyID, uint64) {
	if !sr.keyed {
		return nil, sr.arena.gen
	}
	return sr.arena.ids, sr.arena.gen
}

// decode is the encoding/json route for a line scanTxn declined. Its
// Txn lives here, not in read, so only this route pays for the value
// reflection makes escape.
func (sr *StreamReader) decode(line []byte) (Txn, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var t Txn
	if err := dec.Decode(t.fields()); err != nil {
		return Txn{}, fmt.Errorf("history: ndjson: line %d: %w", sr.line, err)
	}
	if dec.More() {
		return Txn{}, fmt.Errorf("history: ndjson: line %d: trailing data after record", sr.line)
	}
	return t, nil
}

// ReadNDJSON drains a streaming NDJSON document into a validated
// History (the one-shot counterpart of StreamReader, used by ReadAuto).
func ReadNDJSON(r io.Reader) (*History, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	return drain(sr)
}
