package history

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// MTCB is the binary columnar wire codec: the on-wire twin of the
// columnar Index. A document is a header block — magic, version,
// declared session count, and an interned key table written once — then
// per-transaction records whose operations are varint-encoded dense
// key ids and values. Transaction ids are implicit (records arrive in
// dense id order, like the NDJSON stream), keys are never repeated on
// the wire, and a one-byte end-of-stream record closes the document so
// a truncated tail is rejected instead of silently dropped — the binary
// analog of the NDJSON trailing-newline integrity check.
//
// Layout (all integers varint; uvarint unless marked zigzag):
//
//	magic   "MTCB"                        4 bytes
//	version 0x01                          1 byte
//	sessions declared session count       uvarint (0 = unknown)
//	keys    table length N                uvarint
//	N ×     key                           uvarint length + bytes
//	…records, one tag byte each:
//	0x01    transaction record:
//	        session (-1 = init)           zigzag
//	        start, finish                 zigzag ×2
//	        committed                     1 byte (0|1)
//	        ops count M                   uvarint
//	        M × { keyID<<1 | kind         uvarint   (kind: 0 read, 1 write)
//	              value }                 zigzag
//	0x02    key definition: appends the next table id (streaming
//	        writers that learn keys mid-stream)
//	0x00    end of stream
//
// WriteMTCB emits the key table in lexicographic order, so the wire ids
// ARE the sorted KeyID ranks of the columnar Index and ReadMTCBIndexed
// can append footprint columns in one pass with an identity remap — no
// map lookups per operation, no re-interning.
const MTCBMagic = "MTCB"

const mtcbVersion = 1

// Record tags.
const (
	mtcbTagEnd byte = 0x00
	mtcbTagTxn byte = 0x01
	mtcbTagKey byte = 0x02
)

// Decode guards: corrupt or adversarial input may declare absurd
// counts; these bound what a reader will allocate before the stream
// itself runs dry.
const (
	mtcbMaxKeyLen   = 1 << 20 // longest key accepted, bytes
	mtcbMaxOps      = 1 << 24 // most operations accepted in one transaction
	mtcbOpsPrealloc = 1 << 12 // ops preallocated before trusting a declared count
)

// Sentinel decode errors kept fmt-free so the op-decoding hot loop
// stays allocation-disciplined; callers wrap them with position info.
var (
	errMTCBKeyID     = errors.New("history: mtcb: op references unknown key id")
	errMTCBOpCount   = errors.New("history: mtcb: implausible op count")
	errMTCBCommitted = errors.New("history: mtcb: committed flag not 0 or 1")
)

// BinaryWriter emits an MTCB document one transaction at a time — the
// binary counterpart of StreamWriter. Keys already in the header table
// are referenced by id; a key first seen in a transaction is emitted as
// an inline key-definition record just before it.
type BinaryWriter struct {
	bw    *bufio.Writer
	it    *Interner // wire ids in emission order
	ids   []KeyID   // the current record's op ids, reused across records
	n     int       // transactions written
	vbuf  [binary.MaxVarintLen64]byte
	ended bool
}

// NewBinaryWriter starts an MTCB document on w with an empty key table;
// keys are defined inline as transactions introduce them. sessions > 0
// declares the stream's session count up front (arming a windowed
// streaming check's staleness horizon, like the NDJSON header); pass 0
// when it is not known.
func NewBinaryWriter(w io.Writer, sessions int) (*BinaryWriter, error) {
	return newBinaryWriter(w, sessions, nil)
}

// newBinaryWriter writes the header with the given key table. Keys must
// be distinct; WriteMTCB passes them sorted so wire ids equal the
// columnar Index's lexicographic ranks.
func newBinaryWriter(w io.Writer, sessions int, keys []Key) (*BinaryWriter, error) {
	bw := &BinaryWriter{bw: bufio.NewWriter(w), it: NewInterner()}
	if _, err := bw.bw.WriteString(MTCBMagic); err != nil {
		return nil, err
	}
	if err := bw.bw.WriteByte(mtcbVersion); err != nil {
		return nil, err
	}
	if sessions < 0 {
		sessions = 0
	}
	bw.putUvarint(uint64(sessions))
	bw.putUvarint(uint64(len(keys)))
	for _, k := range keys {
		bw.it.Intern(k)
		if err := bw.putString(string(k)); err != nil {
			return nil, err
		}
	}
	if bw.it.Len() != len(keys) {
		return nil, fmt.Errorf("history: mtcb: duplicate key in header table")
	}
	return bw, nil
}

func (w *BinaryWriter) putUvarint(v uint64) error {
	n := binary.PutUvarint(w.vbuf[:], v)
	_, err := w.bw.Write(w.vbuf[:n])
	return err
}

func (w *BinaryWriter) putVarint(v int64) error {
	n := binary.PutVarint(w.vbuf[:], v)
	_, err := w.bw.Write(w.vbuf[:n])
	return err
}

func (w *BinaryWriter) putString(s string) error {
	if err := w.putUvarint(uint64(len(s))); err != nil {
		return err
	}
	_, err := w.bw.WriteString(s)
	return err
}

// WriteTxn appends one transaction record, emitting inline
// key-definition records for keys the wire has not seen. IDs must
// arrive densely in order (t.ID == transactions written so far), and a
// session of -1 (the init transaction) is only legal first — the same
// contract as StreamWriter.WriteTxn.
func (w *BinaryWriter) WriteTxn(t Txn) error {
	if w.ended {
		return fmt.Errorf("history: mtcb: write after Close")
	}
	if t.ID != w.n {
		return fmt.Errorf("history: mtcb: txn id %d out of order (want %d)", t.ID, w.n)
	}
	if t.Session < -1 {
		return fmt.Errorf("history: mtcb: txn %d: negative session %d", t.ID, t.Session)
	}
	if t.Session == -1 && w.n != 0 {
		return fmt.Errorf("history: mtcb: init transaction must be first")
	}
	// One interner lookup per op: the wire ids are kept for the record,
	// and a key first seen here is defined inline before it.
	w.ids = w.ids[:0]
	for _, op := range t.Ops {
		id, ok := w.it.Lookup(op.Key)
		if !ok {
			id = w.it.Intern(op.Key)
			w.bw.WriteByte(mtcbTagKey)
			if err := w.putString(string(op.Key)); err != nil {
				return err
			}
		}
		w.ids = append(w.ids, id)
	}
	w.bw.WriteByte(mtcbTagTxn)
	w.putVarint(int64(t.Session))
	w.putVarint(t.Start)
	w.putVarint(t.Finish)
	committed := byte(0)
	if t.Committed {
		committed = 1
	}
	w.bw.WriteByte(committed)
	// bufio's error is sticky, so only the last write of the record
	// needs checking: an earlier failure resurfaces there.
	err := w.putUvarint(uint64(len(t.Ops)))
	for i, op := range t.Ops {
		w.putUvarint(uint64(w.ids[i])<<1 | uint64(op.Kind&1))
		err = w.putVarint(int64(op.Value))
	}
	if err != nil {
		return err
	}
	w.n++
	return nil
}

// Flush writes buffered records through without closing the document.
func (w *BinaryWriter) Flush() error { return w.bw.Flush() }

// Close writes the end-of-stream record and flushes. The document is
// not well-formed until Close returns nil.
func (w *BinaryWriter) Close() error {
	if w.ended {
		return nil
	}
	w.ended = true
	if err := w.bw.WriteByte(mtcbTagEnd); err != nil {
		return err
	}
	return w.bw.Flush()
}

// WriteMTCB serializes the whole history as one MTCB document (the
// one-shot counterpart of BinaryWriter). The key table is written
// sorted, so decoders that build a columnar Index get lexicographic
// wire ids for free.
func WriteMTCB(w io.Writer, h *History) error {
	bw, err := newBinaryWriter(w, len(h.Sessions), h.Keys())
	if err != nil {
		return err
	}
	for i := range h.Txns {
		t := h.Txns[i]
		if h.HasInit && i == 0 {
			t.Session = -1
		}
		if err := bw.WriteTxn(t); err != nil {
			return err
		}
	}
	return bw.Close()
}

// BinaryReader yields the transactions of an MTCB document one at a
// time, transparently decompressing gzip input (sniffed by magic bytes,
// like ReadAuto). It satisfies the core.TxnSource contract — Next until
// io.EOF — and declares the header's session count, so it composes with
// CheckStream and epoch-windowed compaction exactly as StreamReader
// does. Decoded Op.Key strings alias the interned key table: one string
// per distinct key per document, not per operation.
type BinaryReader struct {
	br       *bufio.Reader
	names    []Key
	seen     map[Key]struct{}
	declared int
	next     int
	nextOff  int // ops consumed so far (opIDs cursor)
	hasInit  bool
	err      error // the first error, io.EOF included: terminal

	arena   *IngestArena // session-wide key interner, when one is attached
	ops     *opChunks    // where Ops slices are carved: the arena's chunks, else own
	own     opChunks
	collect bool
	opIDs   []KeyID // wire key id per op, in stream order (collect mode)
}

// NewBinaryReader validates the MTCB header, reads the key table, and
// positions the reader at the first record.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	return newBinaryReader(r, nil)
}

// NewBinaryFrameReader is NewBinaryReader with every decode allocation
// that can outlive the frame routed through a long-lived IngestArena:
// key strings intern session-wide and Op slices are carved from shared
// chunks. mtcserve batch ingest decodes each posted frame this way.
func NewBinaryFrameReader(r io.Reader, a *IngestArena) (*BinaryReader, error) {
	return newBinaryReader(r, a)
}

func newBinaryReader(r io.Reader, arena *IngestArena) (*BinaryReader, error) {
	br, err := gunzip(bufio.NewReader(r), "history: mtcb")
	if err != nil {
		return nil, err
	}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("history: mtcb: short magic: %w", err)
	}
	if string(magic[:]) != MTCBMagic {
		return nil, fmt.Errorf("history: mtcb: bad magic %q", magic[:])
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("history: mtcb: missing version: %w", err)
	}
	if version != mtcbVersion {
		return nil, fmt.Errorf("history: mtcb: unsupported version %d", version)
	}
	sr := &BinaryReader{br: br, arena: arena, seen: make(map[Key]struct{})}
	sr.ops = &sr.own
	if arena != nil {
		sr.ops = &arena.opChunks
	}
	declared, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("history: mtcb: truncated header: %w", err)
	}
	if declared > maxSessions {
		return nil, fmt.Errorf("history: mtcb: implausible session count %d", declared)
	}
	sr.declared = int(declared)
	nk, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("history: mtcb: truncated header: %w", err)
	}
	if err := sr.readKeyTable(nk); err != nil {
		return nil, err
	}
	return sr, nil
}

// readKeyTable reads the header's nk key entries into one backing
// string the table's keys are substrings of. nk is only a loop bound:
// the buffer and the offsets grow with the bytes actually read, so a
// header declaring 2^40 keys over an empty stream allocates nothing.
func (r *BinaryReader) readKeyTable(nk uint64) error {
	var (
		buf  []byte
		ends []int // ends[i] is where key i stops in buf
	)
	for i := uint64(0); i < nk; i++ {
		n, err := r.readKeyLen()
		if err != nil {
			return err
		}
		at := len(buf)
		buf = append(buf, make([]byte, n)...)
		if _, err := io.ReadFull(r.br, buf[at:]); err != nil {
			return fmt.Errorf("history: mtcb: truncated key table: %w", err)
		}
		ends = append(ends, len(buf))
	}
	table, at := string(buf), 0
	for _, end := range ends {
		k := Key(table[at:end])
		if r.arena != nil {
			// The session's table outlives this document: a key it has
			// not seen is copied out of the backing string, not left
			// pinning it.
			if _, known := r.arena.it.Lookup(k); !known {
				k = Key(strings.Clone(string(k)))
			}
		}
		if err := r.defineKey(k); err != nil {
			return err
		}
		at = end
	}
	return nil
}

// readKeyLen reads and bounds one key entry's length prefix.
func (r *BinaryReader) readKeyLen() (int, error) {
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, fmt.Errorf("history: mtcb: truncated key table: %w", err)
	}
	if n > mtcbMaxKeyLen {
		return 0, fmt.Errorf("history: mtcb: key length %d exceeds limit", n)
	}
	return int(n), nil
}

// readKeyDef reads one inline key definition (a 0x02 record).
func (r *BinaryReader) readKeyDef() error {
	n, err := r.readKeyLen()
	if err != nil {
		return err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return fmt.Errorf("history: mtcb: truncated key table: %w", err)
	}
	return r.defineKey(Key(buf))
}

// defineKey appends k as the next wire id, interning through the arena
// when one is attached and rejecting duplicate entries — two wire ids
// for one key would let a corrupt stream smuggle distinct-looking ops
// onto the same key.
func (r *BinaryReader) defineKey(k Key) error {
	if r.arena != nil {
		k = r.arena.internKey(k)
	}
	if _, dup := r.seen[k]; dup {
		return fmt.Errorf("history: mtcb: duplicate key table entry %q", k)
	}
	r.seen[k] = struct{}{}
	r.names = append(r.names, k)
	return nil
}

// DeclaredSessions returns the session count the header declared, or 0
// when the writer did not know it up front.
func (r *BinaryReader) DeclaredSessions() int { return r.declared }

// HasInit reports whether the stream carried an init transaction. Only
// meaningful for the prefix consumed so far.
func (r *BinaryReader) HasInit() bool { return r.hasInit }

// NumTxns returns how many transactions have been consumed.
func (r *BinaryReader) NumTxns() int { return r.next }

// Next returns the next transaction in stream order, or io.EOF once the
// end-of-stream record has been consumed. EOF on the underlying reader
// before that record is a truncated document and fails loudly. The
// first error is terminal (see TxnStream).
func (r *BinaryReader) Next() (Txn, error) {
	if r.err != nil {
		return Txn{}, r.err
	}
	t, err := r.read()
	r.err = err
	return t, err
}

func (r *BinaryReader) read() (Txn, error) {
	for {
		tag, err := r.br.ReadByte()
		if err != nil {
			if err == io.EOF {
				return Txn{}, fmt.Errorf("history: mtcb: truncated stream after %d txns (missing end-of-stream record)", r.next)
			}
			return Txn{}, err
		}
		switch tag {
		case mtcbTagEnd:
			return Txn{}, io.EOF
		case mtcbTagKey:
			if err := r.readKeyDef(); err != nil {
				return Txn{}, err
			}
		case mtcbTagTxn:
			return r.readTxn()
		default:
			return Txn{}, fmt.Errorf("history: mtcb: record %d: unknown tag 0x%02x", r.next, tag)
		}
	}
}

// readTxn decodes one transaction record; the id is implicit.
func (r *BinaryReader) readTxn() (Txn, error) {
	sess, err := binary.ReadVarint(r.br)
	if err != nil {
		return Txn{}, r.truncated(err)
	}
	if sess < -1 || sess > maxSessions {
		return Txn{}, fmt.Errorf("history: mtcb: txn %d: implausible session %d", r.next, sess)
	}
	if sess == -1 && r.next != 0 {
		return Txn{}, fmt.Errorf("history: mtcb: txn %d: init transaction must be first", r.next)
	}
	start, err := binary.ReadVarint(r.br)
	if err != nil {
		return Txn{}, r.truncated(err)
	}
	finish, err := binary.ReadVarint(r.br)
	if err != nil {
		return Txn{}, r.truncated(err)
	}
	committed, err := r.br.ReadByte()
	if err != nil {
		return Txn{}, r.truncated(err)
	}
	if committed > 1 {
		return Txn{}, fmt.Errorf("history: mtcb: txn %d: %w", r.next, errMTCBCommitted)
	}
	ops, err := r.readOps()
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Txn{}, r.truncated(err)
		}
		return Txn{}, fmt.Errorf("history: mtcb: txn %d: %w", r.next, err)
	}
	t := Txn{
		ID: r.next, Session: int(sess), Ops: ops,
		Start: start, Finish: finish, Committed: committed == 1,
	}
	if sess == -1 {
		r.hasInit = true
	}
	r.next++
	r.nextOff += len(ops)
	return t, nil
}

// readOps decodes a transaction's operation block. Key strings alias
// the interned table, the Ops slice is carved from the reader's chunks,
// and errors are the fmt-free sentinels above.
//
//mtc:hotpath — per-op decode loop; one chunk per 4096 ops, zero per-op or per-txn allocation
func (r *BinaryReader) readOps() ([]Op, error) {
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return nil, err
	}
	if n > mtcbMaxOps {
		return nil, errMTCBOpCount
	}
	if n == 0 {
		return nil, nil
	}
	var ops []Op
	exact := n <= mtcbOpsPrealloc
	if exact {
		// Declared count small enough to trust: carve exactly and fill in
		// place. A record that fails midway leaves the chunk as it was.
		ops = r.ops.reserve(int(n))
	} else {
		// A count this large may be a lie from a corrupt stream: grow
		// only as fast as the stream actually delivers ops.
		ops = make([]Op, 0, mtcbOpsPrealloc)
	}
	for i := uint64(0); i < n; i++ {
		ku, err := binary.ReadUvarint(r.br)
		if err != nil {
			return nil, err
		}
		wire := ku >> 1
		if wire >= uint64(len(r.names)) {
			return nil, errMTCBKeyID
		}
		v, err := binary.ReadVarint(r.br)
		if err != nil {
			return nil, err
		}
		op := Op{Kind: OpKind(ku & 1), Key: r.names[wire], Value: Value(v)}
		if exact {
			ops[i] = op
		} else {
			ops = append(ops, op) //mtc:alloc-ok growth path only reachable past a 4096-op declared count
		}
		if r.collect {
			r.opIDs = append(r.opIDs, KeyID(wire)) //mtc:alloc-ok amortized stream-wide column, indexed-read mode only
		}
	}
	if exact {
		r.ops.commit(int(n))
	}
	return ops, nil
}

// truncated wraps an unexpected end-of-input inside a record.
func (r *BinaryReader) truncated(err error) error {
	return fmt.Errorf("history: mtcb: truncated txn record %d: %w", r.next, err)
}

// ReadMTCB drains an MTCB document into a validated History (the
// one-shot counterpart of BinaryReader, used by ReadAuto).
func ReadMTCB(r io.Reader) (*History, error) {
	sr, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	return drain(sr)
}

// ReadMTCBIndexed drains an MTCB document straight into a columnar
// Index: the key table is interned once at header time and the
// footprint columns are appended in one pass over the wire ids, so no
// per-operation map lookup or re-intern happens anywhere. For documents
// written by WriteMTCB the table arrives pre-sorted and the id remap is
// the identity. The History behind the Index is reachable via
// Index.History().
func ReadMTCBIndexed(r io.Reader) (*Index, error) {
	sr, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	sr.collect = true
	h, err := drain(sr)
	if err != nil {
		return nil, err
	}
	// Remap wire ids to lexicographic ranks. The sorted interner also
	// backs the Index's name lookups.
	nk := len(sr.names)
	sortedNames := make([]Key, nk)
	copy(sortedNames, sr.names)
	slices.Sort(sortedNames)
	sorted := NewInterner()
	for _, k := range sortedNames {
		sorted.Intern(k)
	}
	remap := make([]KeyID, nk) // wire id -> sorted rank
	identity := true
	for id, k := range sr.names {
		remap[id], _ = sorted.Lookup(k)
		identity = identity && remap[id] == KeyID(id)
	}
	if !identity {
		remapColumn(sr.opIDs, remap)
	}
	return newIndexColumns(h, sorted, sr.opIDs), nil
}

// remapColumn rewrites a KeyID column in place through remap.
//
//mtc:hotpath — indexed-decode id remap, zero allocation
func remapColumn(ids []KeyID, remap []KeyID) {
	for i, id := range ids {
		ids[i] = remap[id]
	}
}

// IngestArena amortizes the decode allocations of a long transaction
// stream feeding one consumer — the MTCB frames of an mtcserve streaming
// session, the lines of an NDJSON StreamReader, the records of one JSON
// document (ScanDocument). Key strings intern once per stream instead of
// once per frame or operation, and Op slices are carved from its chunks
// (opChunks). A BinaryReader with no arena — the one-shot MTCB reads, a
// streamed capture — carves from chunks of its own and needs no
// interner: its key table is one string per key already.
type IngestArena struct {
	it *Interner
	opChunks
}

// NewIngestArena returns an empty arena.
func NewIngestArena() *IngestArena { return &IngestArena{it: NewInterner()} }

// opChunks carves Op slices from append-only chunks instead of one make
// per transaction. Chunks are never reused, so a consumer may keep a
// decoded transaction (the one-shot reads do); one that does not
// (core.Incremental.Add copies what it keeps) lets each chunk die with
// its last transaction.
type opChunks struct{ free []Op }

// ingestArenaChunk is the Op count carved per chunk allocation. A
// transaction of more ops than a whole chunk holds gets a slice of its
// own; reserve, grow and commit draw that line at the same count, so
// commit can tell by length alone whether the ops it is handed sit in
// the chunk.
const ingestArenaChunk = 4096

// reserve returns an n-op slice from the current chunk, cutting a fresh
// chunk when it runs dry; the capacity is clipped so callers cannot
// append into a neighbor's ops. The caller fills the slice and then
// either keeps it (commit) or walks away, leaving the chunk as it was —
// how scanTxn parses straight into the arena before it knows whether the
// line is one it decodes, and how a record cut short takes nothing.
//
//mtc:hotpath — one chunk allocation per 4096 decoded ops
func (c *opChunks) reserve(n int) []Op {
	if n > ingestArenaChunk {
		return make([]Op, n) //mtc:alloc-ok oversized transactions get their own slice
	}
	if n > len(c.free) {
		c.free = make([]Op, ingestArenaChunk) //mtc:alloc-ok the amortized chunk cut
	}
	return c.free[:n:n]
}

// grow is reserve for a transaction whose length is not known up front:
// ops, which fills what was left of the current chunk, moves to where one
// more fits — a fresh chunk, or a slice of its own once it has filled a
// whole one.
//
//mtc:hotpath — one chunk allocation per 4096 decoded ops
func (c *opChunks) grow(ops []Op) []Op {
	if len(ops) >= ingestArenaChunk {
		return slices.Grow(ops[:len(ops):len(ops)], 1) //mtc:alloc-ok oversized transactions get their own slice
	}
	c.free = make([]Op, ingestArenaChunk) //mtc:alloc-ok the amortized chunk cut
	return append(c.free[:0], ops...)
}

// commit hands over the n ops last reserved or grown into place.
func (c *opChunks) commit(n int) {
	if n <= ingestArenaChunk {
		c.free = c.free[n:]
	}
}

// internKey returns the canonical session-wide string for k, letting
// each frame's key-table copies be collected after decode.
func (a *IngestArena) internKey(k Key) Key { return a.it.Name(a.it.Intern(k)) }

// ingestArenaMaxKeys bounds the table internBytes fills: past it the
// table is dropped and restarted, so a stream over an ever-fresh key
// space holds O(window) keys, not O(stream).
const ingestArenaMaxKeys = 1 << 16

// internBytes is internKey for a key still sitting in the input buffer:
// a known key costs one map probe and no allocation. The table is a
// cache — strings already handed out stay valid when it restarts.
//
//mtc:hotpath — one string allocation per distinct key, none per op
func (a *IngestArena) internBytes(b []byte) Key {
	if id, ok := a.it.ids[Key(b)]; ok { // the conversion does not allocate in a map index
		return a.it.Name(id)
	}
	if a.it.Len() >= ingestArenaMaxKeys {
		a.it = NewInterner() //mtc:alloc-ok once per 65536 first-seen keys
	}
	return a.internKey(Key(b)) //mtc:alloc-ok the first sight of a key
}

// NumKeys returns the number of distinct keys interned so far.
func (a *IngestArena) NumKeys() int { return a.it.Len() }
