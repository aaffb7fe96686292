package history

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
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
// WriteMTCB and AppendMTCB emit the key table in lexicographic order,
// so the wire ids ARE the sorted KeyID ranks of the columnar Index and
// ReadMTCBIndexed can append footprint columns in one pass with an
// identity remap — no map lookups per operation, no re-interning.
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
	it    *interner // wire ids in emission order
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
	bw := &BinaryWriter{bw: bufio.NewWriter(w), it: newInterner()}
	bw.bw.WriteString(MTCBMagic)
	bw.bw.WriteByte(mtcbVersion)
	bw.putUvarint(uint64(max(sessions, 0)))
	bw.putUvarint(0) // the key table: every key is defined inline
	return bw, nil   // bufio's error is sticky: a failed write resurfaces at Close
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
	if err := checkRecord("mtcb: txn", w.n, t.ID, t.Session, w.n); err != nil {
		return err
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

// WriteMTCB serializes the whole history as one MTCB document:
// KeyColumn, then AppendMTCB.
func WriteMTCB(w io.Writer, h *History) error {
	names, opKey := KeyColumn(h)
	b, err := AppendMTCB(nil, h, names, opKey)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendMTCB appends h to dst as one MTCB document, from a key column
// shaped like KeyColumn's (names distinct; one id per op of h, in
// order), such as a shard split's. The key table is ranked by name as
// IndexColumns ranks it, so the wire ids are the columnar Index's
// KeyIDs; opKey is only read. Every key sits in the header, so no
// inline key definition is written. The output is sized exactly before
// the first byte is appended.
func AppendMTCB(dst []byte, h *History, names []string, opKey []KeyID) ([]byte, error) {
	sorted, rank, _ := rankNames(names)
	n := len(MTCBMagic) + 1 + uvarintLen(uint64(len(h.Sessions))) + uvarintLen(uint64(len(sorted))) + 1
	for _, k := range sorted {
		n += uvarintLen(uint64(len(k))) + len(k)
	}
	pos := 0
	for i := range h.Txns {
		t := &h.Txns[i]
		sess, err := mtcbSession(h, i)
		if err != nil {
			return dst, err
		}
		n += 2 + varintLen(sess) + varintLen(t.Start) + varintLen(t.Finish) + uvarintLen(uint64(len(t.Ops)))
		for j, op := range t.Ops {
			n += uvarintLen(uint64(rank[opKey[pos+j]])<<1|uint64(op.Kind&1)) + varintLen(int64(op.Value))
		}
		pos += len(t.Ops)
	}

	dst = append(slices.Grow(dst, n), MTCBMagic...)
	dst = binary.AppendUvarint(append(dst, mtcbVersion), uint64(len(h.Sessions)))
	dst = binary.AppendUvarint(dst, uint64(len(sorted)))
	for _, k := range sorted {
		dst = append(binary.AppendUvarint(dst, uint64(len(k))), k...)
	}
	pos = 0
	for i := range h.Txns {
		t := &h.Txns[i]
		sess, _ := mtcbSession(h, i)
		dst = binary.AppendVarint(append(dst, mtcbTagTxn), sess)
		dst = binary.AppendVarint(binary.AppendVarint(dst, t.Start), t.Finish)
		committed := byte(0)
		if t.Committed {
			committed = 1
		}
		dst = binary.AppendUvarint(append(dst, committed), uint64(len(t.Ops)))
		for j, op := range t.Ops {
			dst = binary.AppendUvarint(dst, uint64(rank[opKey[pos+j]])<<1|uint64(op.Kind&1))
			dst = binary.AppendVarint(dst, int64(op.Value))
		}
		pos += len(t.Ops)
	}
	return append(dst, mtcbTagEnd), nil
}

// mtcbSession is the session transaction i of h is written under: -1
// for the init transaction.
func mtcbSession(h *History, i int) (int64, error) {
	sess := h.Txns[i].Session
	if h.HasInit && i == 0 {
		sess = -1
	}
	return int64(sess), checkRecord("mtcb: txn", i, h.Txns[i].ID, sess, i)
}

// checkRecord is the one rule of what can be the n-th record of a
// streamed history, kept by both readers and both writers: the id in
// place, and a session from -1 (the init transaction, legal only
// first) to maxSessions. where and pos name the record in the codec's
// terms ("ndjson: line", "mtcb: txn").
func checkRecord(where string, pos, id, sess, n int) error {
	switch {
	case id != n:
		return fmt.Errorf("history: %s %d: txn id %d out of order (want %d)", where, pos, id, n)
	case sess < -1 || sess > maxSessions:
		return fmt.Errorf("history: %s %d: implausible session %d", where, pos, sess)
	case sess == -1 && n != 0:
		return fmt.Errorf("history: %s %d: init transaction must be first", where, pos)
	}
	return nil
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintLen is the length of v's zigzag varint encoding.
func varintLen(v int64) int { return uvarintLen(uint64(v)<<1 ^ uint64(v>>63)) }

// mtcbDecoder is the one MTCB decoder. It reads buf[pos:], which holds
// the whole document for the one-shot reads (readMTCB) and a window of
// mtcbWindow bytes onto src for BinaryReader, refilled as it runs dry.
// Varints decode straight from buf; only one that crosses the window's
// edge goes through binary.ReadUvarint.
type mtcbDecoder struct {
	src  io.Reader
	buf  []byte
	pos  int
	rerr error // src's error, io.EOF included, returned once buf is drained

	names    []string
	seen     map[Key]struct{} // the keys names holds, with no arena attached
	arena    *IngestArena     // session-wide key interner, when one is attached
	it       *interner        // the arena's table this frame's keys are stamped in
	declared int
	n        int    // transaction records decoded
	scratch  []byte // the last inline key definition's bytes
}

// mtcbWindow is BinaryReader's window: bufio's default size.
const mtcbWindow = 4096

// open decodes the header from r, gzip unwrapped (sniffed by magic
// bytes, like ReadAuto). With whole set it first reads all of r into
// buf, in one read sized from r's Len() when r has one.
func (d *mtcbDecoder) open(r io.Reader, whole bool) error {
	// The gzip sniff peeks two bytes; larger reads bypass bufio's buffer.
	src, err := gunzip(bufio.NewReaderSize(r, 16), "history: mtcb")
	if err != nil {
		return err
	}
	if d.src = src; d.arena == nil {
		d.seen = make(map[Key]struct{})
	}
	if !whole {
		d.buf = make([]byte, 0, mtcbWindow)
		return d.header()
	}
	var b bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		b.Grow(l.Len() + bytes.MinRead) // room for ReadFrom's last read: no regrowth
	}
	_, err = b.ReadFrom(src)
	d.buf, d.rerr = b.Bytes(), cmp.Or(err, io.EOF)
	return d.header()
}

// fill reads the next window from src once buf is drained, and reports
// whether it got any bytes.
func (d *mtcbDecoder) fill() bool {
	if d.rerr != nil {
		return false
	}
	d.buf, d.pos = d.buf[:0], 0
	for tries := 0; d.rerr == nil && len(d.buf) == 0; tries++ {
		m, err := d.src.Read(d.buf[:cap(d.buf)])
		d.buf, d.rerr = d.buf[:m], err
		if m == 0 && tries == 100 { // bufio's bound on a reader that never delivers
			d.rerr = cmp.Or(err, io.ErrNoProgress)
		}
	}
	return len(d.buf) > 0
}

// ReadByte and Read make the decoder the io.ByteReader and io.Reader
// binary.ReadUvarint and io.ReadFull read, with their end-of-input errors.
func (d *mtcbDecoder) ReadByte() (byte, error) {
	if d.pos == len(d.buf) && !d.fill() {
		return 0, d.rerr
	}
	d.pos++
	return d.buf[d.pos-1], nil
}

func (d *mtcbDecoder) Read(p []byte) (int, error) {
	if d.pos == len(d.buf) && !d.fill() {
		return 0, d.rerr
	}
	n := copy(p, d.buf[d.pos:])
	d.pos += n
	return n, nil
}

func (d *mtcbDecoder) uvarint() (uint64, error) {
	if v, n := binary.Uvarint(d.buf[d.pos:]); n > 0 {
		d.pos += n
		return v, nil
	}
	return binary.ReadUvarint(d)
}

func (d *mtcbDecoder) varint() (int64, error) {
	u, err := d.uvarint()
	return int64(u>>1) ^ -int64(u&1), err
}

// header decodes magic, version, the declared session count and the key
// table, whose keys are substrings of one backing string. The declared
// key count only bounds the loop: the table grows with the bytes read,
// so a header declaring 2^40 keys over an empty stream allocates nothing.
func (d *mtcbDecoder) header() error {
	var magic [4]byte
	if _, err := io.ReadFull(d, magic[:]); err != nil {
		return fmt.Errorf("history: mtcb: short magic: %w", err)
	}
	if string(magic[:]) != MTCBMagic {
		return fmt.Errorf("history: mtcb: bad magic %q", magic[:])
	}
	version, err := d.ReadByte()
	if err != nil {
		return fmt.Errorf("history: mtcb: missing version: %w", err)
	}
	if version != mtcbVersion {
		return fmt.Errorf("history: mtcb: unsupported version %d", version)
	}
	declared, err := d.uvarint()
	if err != nil {
		return fmt.Errorf("history: mtcb: truncated header: %w", err)
	}
	if declared > maxSessions {
		return fmt.Errorf("history: mtcb: implausible session count %d", declared)
	}
	d.declared = int(declared)
	nk, err := d.uvarint()
	if err != nil {
		return fmt.Errorf("history: mtcb: truncated header: %w", err)
	}
	var (
		buf  []byte
		ends []int // ends[i] is where key i stops in buf
	)
	for i := uint64(0); i < nk; i++ {
		if buf, err = d.key(buf); err != nil {
			return err
		}
		ends = append(ends, len(buf))
	}
	table, at := string(buf), 0
	for _, end := range ends {
		k := Key(table[at:end])
		if d.arena != nil {
			// The session's table outlives this document: a key it has
			// not seen is copied out of the backing string.
			if _, known := d.arena.it.Lookup(k); !known {
				k = Key(strings.Clone(string(k)))
			}
		}
		if err := d.defineKey(k); err != nil {
			return err
		}
		at = end
	}
	return nil
}

// key appends one key entry's bytes to dst: a bounded length, then as
// many bytes. It reads the header's table and inline definitions.
func (d *mtcbDecoder) key(dst []byte) ([]byte, error) {
	n, err := d.uvarint()
	if err == nil && n > mtcbMaxKeyLen {
		return nil, fmt.Errorf("history: mtcb: key length %d exceeds limit", n)
	}
	if at := len(dst); err == nil {
		dst = append(dst, make([]byte, n)...)
		_, err = io.ReadFull(d, dst[at:])
	}
	if err != nil {
		return nil, fmt.Errorf("history: mtcb: truncated key table: %w", err)
	}
	return dst, nil
}

// keyOf is the string of an inline key definition: the arena's own when
// it knows the key, so a frame redefining known keys allocates nothing.
func (d *mtcbDecoder) keyOf(b []byte) Key {
	if d.arena != nil {
		return d.arena.internBytes(b)
	}
	return Key(b)
}

// defineKey appends k as the next wire id, interning through the arena
// when one is attached and rejecting duplicate entries — two wire ids
// for one key would let a corrupt stream smuggle distinct-looking ops
// onto the same key.
func (d *mtcbDecoder) defineKey(k Key) error {
	dup := false
	if a := d.arena; a == nil {
		_, dup = d.seen[k]
		d.seen[k] = struct{}{}
	} else {
		if d.it != a.it { // the frame's first key, or the table restarted: a new generation
			d.it, a.frame = a.it, a.frame+1
			for _, name := range d.names {
				a.define(Key(name))
			}
		}
		k, dup = a.define(k)
	}
	if dup {
		return fmt.Errorf("history: mtcb: duplicate key table entry %q", k)
	}
	d.names = append(d.names, string(k))
	return nil
}

// next decodes records up to the next transaction record, fills t from
// it but for Ops and returns its op count, the ops left to read; the
// end-of-stream record is io.EOF. EOF on the underlying reader before
// that record is a truncated document.
func (d *mtcbDecoder) next(define bool, t *Txn) (int, error) {
	for {
		tag, err := d.ReadByte()
		switch {
		case err == io.EOF:
			return 0, fmt.Errorf("history: mtcb: truncated stream after %d txns (missing end-of-stream record)", d.n)
		case err != nil:
			return 0, err
		case tag == mtcbTagEnd:
			return 0, io.EOF
		case tag == mtcbTagKey:
			k, err := d.key(d.scratch[:0])
			if d.scratch = k; err == nil && define {
				err = d.defineKey(d.keyOf(k))
			}
			if err != nil {
				return 0, err
			}
			continue
		case tag != mtcbTagTxn:
			return 0, fmt.Errorf("history: mtcb: record %d: unknown tag 0x%02x", d.n, tag)
		}
		sess, err := d.varint()
		if err != nil {
			return 0, d.truncated(err)
		}
		if err := checkRecord("mtcb: txn", d.n, d.n, int(sess), d.n); err != nil {
			return 0, err
		}
		t.ID, t.Session = d.n, int(sess)
		if t.Start, err = d.varint(); err != nil {
			return 0, d.truncated(err)
		}
		if t.Finish, err = d.varint(); err != nil {
			return 0, d.truncated(err)
		}
		committed, err := d.ReadByte()
		if err != nil {
			return 0, d.truncated(err)
		}
		if committed > 1 {
			return 0, fmt.Errorf("history: mtcb: txn %d: %w", d.n, errMTCBCommitted)
		}
		t.Committed = committed == 1
		m, err := d.uvarint()
		if err == nil && m > mtcbMaxOps {
			err = errMTCBOpCount
		}
		return int(m), d.opsErr(err)
	}
}

// ops decodes a transaction's m operations into dst — appending once
// past its length, so a count too large to trust costs only the ops the
// stream delivers — and their wire key ids into keys; a nil dst or keys
// is left unwritten, so ops(m, nil, nil) validates a block. Key strings
// alias the key table, and errors are the fmt-free sentinels above.
//
//mtc:hotpath — per-op decode loop over a byte slice; no allocation below a 4096-op count
func (d *mtcbDecoder) ops(m int, dst []Op, keys []KeyID) ([]Op, error) {
	for i := 0; i < m; i++ {
		ku, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if ku>>1 >= uint64(len(d.names)) {
			return nil, errMTCBKeyID
		}
		v, err := d.varint()
		if err != nil {
			return nil, err
		}
		op := Op{Kind: OpKind(ku & 1), Key: Key(d.names[ku>>1]), Value: Value(v)}
		switch {
		case i < len(dst):
			dst[i] = op
		case dst != nil:
			dst = append(dst, op) //mtc:alloc-ok growth path only reachable past a 4096-op declared count
		}
		if keys != nil {
			keys[i] = KeyID(ku >> 1)
		}
	}
	return dst, nil
}

// truncated wraps an unexpected end of input inside a record.
func (d *mtcbDecoder) truncated(err error) error {
	return fmt.Errorf("history: mtcb: truncated txn record %d: %w", d.n, err)
}

// opsErr wraps an error of a record's op block: a block cut off is a
// truncated record, anything else names the transaction.
func (d *mtcbDecoder) opsErr(err error) error {
	switch err {
	case nil:
		return nil
	case io.EOF, io.ErrUnexpectedEOF:
		return d.truncated(err)
	}
	return fmt.Errorf("history: mtcb: txn %d: %w", d.n, err)
}

// BinaryReader yields the transactions of an MTCB document one at a
// time, transparently decompressing gzip input (sniffed by magic bytes,
// like ReadAuto). It is a TxnStream, as StreamReader is. Decoded Op.Key
// strings alias the interned key table: one string per distinct key per
// document, not per operation.
type BinaryReader struct {
	d   mtcbDecoder
	ops *opChunks // where Ops slices are carved: the arena's chunks, else own
	own opChunks
	err error // the first error, io.EOF included: terminal
}

// NewBinaryReader validates the MTCB header, reads the key table, and
// positions the reader at the first record.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	return newBinaryReader(r, nil)
}

// NewBinaryFrameReader is NewBinaryReader with every decode allocation
// that can outlive the frame routed through a long-lived IngestArena:
// key strings intern session-wide and Op slices are carved from shared
// chunks. An arena reads one frame at a time (its duplicate-key stamps
// are per frame); mtcserve batch ingest decodes each posted frame so.
func NewBinaryFrameReader(r io.Reader, a *IngestArena) (*BinaryReader, error) {
	return newBinaryReader(r, a)
}

func newBinaryReader(r io.Reader, arena *IngestArena) (*BinaryReader, error) {
	br := &BinaryReader{d: mtcbDecoder{arena: arena}}
	br.ops = &br.own
	if arena != nil {
		br.ops = &arena.opChunks
	}
	if err := br.d.open(r, false); err != nil {
		return nil, err
	}
	return br, nil
}

// DeclaredSessions returns the session count the header declared, or 0
// when the writer did not know it up front.
func (r *BinaryReader) DeclaredSessions() int { return r.d.declared }

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

// read decodes the next transaction. A declared op count small enough
// to trust is carved exactly from the chunks (a record that fails
// midway leaves them as they were); a larger one may be a lie from a
// corrupt stream, so its slice grows only as the stream delivers ops.
func (r *BinaryReader) read() (Txn, error) {
	var t Txn
	m, err := r.d.next(true, &t)
	if err == nil && m > 0 {
		var dst []Op
		if m <= mtcbOpsPrealloc {
			dst = r.ops.reserve(m)
		} else {
			dst = make([]Op, 0, mtcbOpsPrealloc) //mtc:alloc-ok growth path only reachable past a 4096-op declared count
		}
		t.Ops, err = r.d.ops(m, dst, nil)
		err = r.d.opsErr(err)
	}
	if err != nil {
		return Txn{}, err
	}
	r.ops.commit(m)
	r.d.n++
	return t, nil
}

// ReadMTCB reads an MTCB document into a validated History (the
// one-shot counterpart of BinaryReader, used by ReadAuto).
func ReadMTCB(r io.Reader) (*History, error) {
	h, _, _, err := readMTCB(r, false)
	return h, err
}

// ReadMTCBIndexed reads an MTCB document straight into a columnar
// Index: the wire key table and the per-op wire ids are the key column
// IndexColumns ranks, so no per-operation map lookup or re-intern
// happens anywhere. For documents written by WriteMTCB the table arrives
// pre-sorted and the rank is the identity. The History behind the Index
// is reachable via Index.History().
func ReadMTCBIndexed(r io.Reader) (*Index, error) {
	h, names, opKey, err := readMTCB(r, true)
	if err != nil {
		return nil, err
	}
	return IndexColumns(h, names, opKey), nil
}

// readMTCB is the one-shot decode: the document read into one buffer, a
// skim that validates every record and counts transactions and ops,
// then a fill of the transaction table, one op arena and — with column
// set — the per-op wire key ids, each allocated once at the size the
// skim counted in bytes it read, never at one a document declares.
func readMTCB(r io.Reader, column bool) (*History, []string, []KeyID, error) {
	var d mtcbDecoder
	if err := d.open(r, true); err != nil {
		return nil, nil, nil, err
	}
	first, nOps := d.pos, 0
	for {
		var t Txn
		m, err := d.next(true, &t)
		if err == io.EOF {
			break
		}
		if err == nil {
			_, err = d.ops(m, nil, nil)
			err = d.opsErr(err)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		d.n, nOps = d.n+1, nOps+m
	}
	var txns []Txn
	if d.n > 0 {
		txns = make([]Txn, d.n)
	}
	arena, opKey, keys := make([]Op, nOps), []KeyID(nil), []KeyID(nil)
	if column {
		opKey = make([]KeyID, nOps)
	}
	d.pos, nOps = first, 0
	for i := range txns {
		d.n = i
		m, err := d.next(false, &txns[i])
		if column && err == nil {
			keys = opKey[nOps : nOps+m]
		}
		if err == nil && m > 0 {
			txns[i].Ops, err = d.ops(m, arena[nOps:nOps+m:nOps+m], keys)
			err = d.opsErr(err)
		}
		if err != nil { // the skim has read every record; kept for safety
			return nil, nil, nil, err
		}
		nOps += m
	}
	h, err := assemble(txns, d.declared)
	return h, d.names, opKey, err
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
	it *interner
	// defined is, by KeyID, the generation of the frame that last defined
	// the key: a frame finds its duplicate entries without a set of its own.
	defined []uint64
	frame   uint64
	// ids, while non-nil, collects the id internBytes gives each key it
	// interns, and gen counts the table's restarts: within one gen an id
	// names exactly one key (StreamReader.KeyIDs).
	ids []KeyID
	gen uint64
	opChunks
}

// NewIngestArena returns an empty arena.
func NewIngestArena() *IngestArena { return &IngestArena{it: newInterner()} }

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

// define interns k and stamps it with the current frame's generation,
// reporting whether it already bore it.
func (a *IngestArena) define(k Key) (Key, bool) {
	id := a.it.Intern(k)
	for len(a.defined) <= int(id) {
		a.defined = append(a.defined, 0)
	}
	dup := a.defined[id] == a.frame
	a.defined[id] = a.frame
	return a.it.Name(id), dup
}

// ingestArenaMaxKeys bounds the table internBytes fills: past it the
// table is dropped and restarted, so a stream over an ever-fresh key
// space holds O(window) keys, not O(stream).
const ingestArenaMaxKeys = 1 << 16

// internBytes returns the session-wide string of a key still sitting in
// the input buffer: a known key costs one map probe and no allocation.
// The table is a cache — strings handed out stay valid when it restarts,
// which starts a new gen. The key's id goes to ids when that is on.
//
//mtc:hotpath — one string allocation per distinct key, none per op
func (a *IngestArena) internBytes(b []byte) Key {
	id, ok := a.it.ids[Key(b)] // the conversion does not allocate in a map index
	if !ok {
		if a.it.Len() >= ingestArenaMaxKeys {
			a.it = newInterner() //mtc:alloc-ok once per 65536 first-seen keys
			a.gen++
		}
		id = a.it.Intern(Key(b)) //mtc:alloc-ok the first sight of a key
	}
	if a.ids != nil {
		a.ids = append(a.ids, id)
	}
	return a.it.Name(id)
}

// NumKeys returns the number of distinct keys interned so far.
func (a *IngestArena) NumKeys() int { return a.it.Len() }
