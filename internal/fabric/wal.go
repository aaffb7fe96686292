package fabric

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

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
//	job     a submitted job: id, engine, options, the transaction and
//	        component counts, and the name, length and CRC-32 of the
//	        side file holding its history (see below)
//	assign  a component dispatched to a worker under a fresh epoch
//	requeue a component re-enqueued (worker death) under a fresh epoch
//	result  an accepted component verdict at its dispatch epoch
//	done    the folded whole-job verdict (replay serves it, never re-runs)
//	fail    a terminal job failure (engine error or cancellation)
//
// Epochs only grow within and across records, so replay restores each
// component's current epoch as the maximum it has seen — a straggler
// from before the restart can never fold into a resumed job.
//
// A job's history is not in the log. Submit writes it once, as MTCB,
// to a file of its own in the side directory <wal>.d/, and makes the
// file and its directory entry durable before it appends the job
// record that names it; terminate unlinks the file once the job's
// done or fail record is durable. Replay reads a side file only for a
// job still pending after the last record (a terminal job needs only
// its component count), and a side file that is missing, short or
// fails its CRC fails that one job durably with ErrHistoryFile. A job
// line without a side file — the retired inline-history form — fails
// Open.
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
	Checker      string `json:"checker,omitempty"`
	Level        string `json:"level,omitempty"`
	Parallelism  int    `json:"parallelism,omitempty"`
	Window       int    `json:"window,omitempty"`
	Txns         int    `json:"txns,omitempty"`
	Components   int    `json:"components,omitempty"`
	HistoryFile  string `json:"history_file,omitempty"`
	HistoryBytes int64  `json:"history_bytes,omitempty"`
	HistoryCRC   uint32 `json:"history_crc32,omitempty"`

	// recAssign / recRequeue / recResult payload.
	Component int    `json:"component"`
	Epoch     int    `json:"epoch"`
	Worker    string `json:"worker,omitempty"`

	// recResult / recDone payload; Error for recFail.
	Report *checker.Report `json:"report,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// ErrHistoryFile fails a replayed pending job whose history side file
// is missing, short, corrupt or does not split as its job record says.
var ErrHistoryFile = errors.New("fabric: wal: history side file unusable")

// wal appends records durably to an NDJSON log and keeps the jobs'
// history side files in dir. Safe for concurrent use.
type wal struct {
	f   *os.File
	bw  *bufio.Writer
	dir string
}

// sideFile names one job's history file in the side directory, with
// the length and CRC-32 its job record carries.
type sideFile struct {
	name string
	size int64
	crc  uint32
}

// openWAL opens (creating if absent) the log at path, replays every
// intact record, and positions the file for appending. A torn final
// line is dropped and the file truncated back to the last intact
// record, so the next append starts on a clean boundary.
func openWAL(path string) (*wal, []walRecord, error) {
	dir := path + ".d"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := syncDir(filepath.Dir(dir)); err != nil {
		return nil, nil, err
	}
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
	w := &wal{f: f, bw: bufio.NewWriter(f), dir: dir}
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
// encodes before taking the lock that orders the log (Submit).
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

// writeHistory encodes h as MTCB into a fresh file of the side
// directory and makes the file and its directory entry durable, so a
// job record naming it can be appended next. On error nothing is left
// behind.
func (w *wal) writeHistory(h *history.History) (sideFile, error) {
	f, err := os.CreateTemp(w.dir, "job-*.mtcb")
	if err != nil {
		return sideFile{}, err
	}
	sf := sideFile{name: filepath.Base(f.Name())}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(f, crc), 64<<10)
	err = history.WriteMTCB(bw, h)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		sf.size, err = f.Seek(0, io.SeekCurrent)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = syncDir(w.dir)
	}
	if err != nil {
		w.removeHistory(sf.name)
		return sideFile{}, err
	}
	sf.crc = crc.Sum32()
	return sf, nil
}

// readHistory loads and decodes a side file, refusing one whose name
// leaves the side directory or whose bytes are not the ones its job
// record describes.
func (w *wal) readHistory(sf sideFile) (*history.History, error) {
	if sf.name == "" || sf.name != filepath.Base(sf.name) || sf.name == "." || sf.name == ".." {
		return nil, fmt.Errorf("%w: bad file name %q", ErrHistoryFile, sf.name)
	}
	b, err := os.ReadFile(filepath.Join(w.dir, sf.name))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHistoryFile, err)
	}
	if int64(len(b)) != sf.size {
		return nil, fmt.Errorf("%w: %s holds %d bytes, the log recorded %d", ErrHistoryFile, sf.name, len(b), sf.size)
	}
	if crc := crc32.ChecksumIEEE(b); crc != sf.crc {
		return nil, fmt.Errorf("%w: %s has CRC-32 %08x, the log recorded %08x", ErrHistoryFile, sf.name, crc, sf.crc)
	}
	h, err := history.ReadMTCB(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrHistoryFile, sf.name, err)
	}
	return h, nil
}

// removeHistory unlinks a side file. A file already gone is not an
// error: replay unlinks the files of terminal jobs again, in case a
// crash came between a terminal record and its unlink.
func (w *wal) removeHistory(name string) {
	if name == "" || name != filepath.Base(name) {
		return
	}
	_ = os.Remove(filepath.Join(w.dir, name))
}

// sweepHistories unlinks every side file not in keep: the files of
// terminal jobs, and the orphans of a crash between a side file's
// fsync and its job record.
func (w *wal) sweepHistories(keep map[string]bool) error {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !keep[e.Name()] {
			w.removeHistory(e.Name())
		}
	}
	return nil
}

// syncDir makes the entries of a directory durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
