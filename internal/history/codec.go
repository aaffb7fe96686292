package history

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// WriteJSON serializes the history as indented JSON.
func WriteJSON(w io.Writer, h *History) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(h)
}

// ReadJSON parses a whole-history JSON document and validates it: the
// canonical spelling (json.Marshal's) through ScanDocument, any other —
// WriteJSON's indented one included — through encoding/json.
func ReadJSON(r io.Reader) (*History, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("history: decode: %w", err)
	}
	h, end := ScanDocument(data, 0, NewIngestArena())
	if end < 0 {
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&h); err != nil {
			return nil, fmt.Errorf("history: decode: %w", err)
		}
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return &h, nil
}

// codec is one file encoding: its save extension, the content marker
// that identifies it on load, and its doors. index is nil where the
// codec has no straight-to-Index decode (NewIndex over read serves),
// stream where it has no incremental one.
type codec struct {
	ext    string
	sniff  func(*bufio.Reader) bool
	read   func(io.Reader) (*History, error)
	index  func(io.Reader) (*Index, error)
	stream func(io.Reader) (TxnStream, error)
	write  func(io.Writer, *History) error
}

// fileCodecs is the one table behind the save path (SaveFile picks the
// row by extension) and every load path (sniffCodec picks the first row
// whose marker opens the payload, never by extension), so the two can
// never disagree about what a suffix means:
//
//	.mtcb    the 4-byte "MTCB" magic
//	.ndjson  the self-identifying header line
//	.json    a leading '{' or '['
//
// A payload no row claims is refused, never guessed at. A ".gz" suffix
// wraps any of them in transparent gzip (sniffed by the gzip magic). An
// extensionless path saves JSON — the historical default, which
// round-trips via the JSON sniff.
var fileCodecs = []codec{
	{".mtcb", sniffMTCB, ReadMTCB, ReadMTCBIndexed, func(r io.Reader) (TxnStream, error) { return NewBinaryReader(r) }, WriteMTCB},
	{".ndjson", sniffNDJSON, ReadNDJSON, nil, func(r io.Reader) (TxnStream, error) { return NewStreamReader(r) }, WriteNDJSON},
	{".json", sniffJSON, ReadJSON, nil, nil, WriteJSON},
}

// SaveFile writes the history to path. A ".gz" suffix selects
// transparent gzip compression; the format is chosen by the remaining
// extension through the fileCodecs table — ".json", ".ndjson" or
// ".mtcb", with no extension defaulting to JSON. Every combination
// round-trips through LoadFile; an extension that would not (unknown or
// doubled ".gz") is rejected instead of silently written in another
// format.
func SaveFile(path string, h *History) error {
	inner := path
	gzipped := strings.EqualFold(filepath.Ext(path), ".gz")
	if gzipped {
		inner = strings.TrimSuffix(path, filepath.Ext(path))
		if strings.EqualFold(filepath.Ext(inner), ".gz") {
			return fmt.Errorf("history: save %q: doubled .gz extension", path)
		}
	}
	ext := strings.ToLower(filepath.Ext(inner))
	if ext == "" {
		ext = ".json"
	}
	i := slices.IndexFunc(fileCodecs, func(c codec) bool { return c.ext == ext })
	if i < 0 {
		return fmt.Errorf("history: save %q: unknown extension (want .json, .ndjson, .mtcb, optionally +.gz, or none for JSON)", ext)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var w io.Writer = f
	var zw *gzip.Writer
	if gzipped {
		zw = gzip.NewWriter(f)
		w = zw
	}
	bw := bufio.NewWriter(w)
	if err := fileCodecs[i].write(bw, h); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			return err
		}
	}
	if err := f.Sync(); err != nil {
		return err
	}
	// Explicit checked close on the write path; the deferred Close
	// behind it then sees ErrClosed and only covers the error returns.
	return f.Close()
}

// LoadFile reads a history from path, sniffing the encoding by content
// rather than trusting the extension (the markers are documented on the
// fileCodecs table): a gzip stream (magic 0x1f 0x8b) is decompressed
// transparently, the MTCB magic selects the binary codec, the NDJSON
// header line the streaming codec and a leading '{' or '[' the JSON
// codec; anything else is refused as an unrecognized encoding.
func LoadFile(path string) (*History, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAuto(f)
}

// LoadFileIndexed is LoadFile for a caller about to check the history:
// see ReadAutoIndexed.
func LoadFileIndexed(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAutoIndexed(f)
}

// ReadAuto reads a history from r with the same content sniffing as
// LoadFile (gzip, then MTCB vs NDJSON vs JSON).
func ReadAuto(r io.Reader) (*History, error) {
	br, c, err := sniffCodec(r)
	if err != nil {
		return nil, err
	}
	return c.read(br)
}

// ReadAutoIndexed is ReadAuto straight to the columnar Index a check
// runs over (the history is Index.History()): an MTCB document decodes
// through ReadMTCBIndexed, whose wire ids are the index's key column, so
// no operation is interned twice; every other codec is read as ReadAuto
// reads it and indexed by NewIndex.
func ReadAutoIndexed(r io.Reader) (*Index, error) {
	br, c, err := sniffCodec(r)
	if err != nil {
		return nil, err
	}
	if c.index != nil {
		return c.index(br)
	}
	h, err := c.read(br)
	if err != nil {
		return nil, err
	}
	return NewIndex(h), nil
}

// sniffCodec unwraps gzip and returns the first row of fileCodecs whose
// marker opens the payload. A payload no row claims — blank, a comment,
// anything else — is an error, not a history. An unzipped file's payload
// has the file's size (never a count the document declares) as its Len(),
// which sizes an MTCB one-shot decode's one read (mtcbDecoder.open).
func sniffCodec(r io.Reader) (io.Reader, *codec, error) {
	raw := bufio.NewReader(r)
	br, err := gunzip(raw, "history")
	if err != nil {
		return nil, nil, err
	}
	if _, err := br.Peek(1); err != nil {
		return nil, nil, fmt.Errorf("history: empty input: %w", err)
	}
	for i := range fileCodecs {
		if c := &fileCodecs[i]; c.sniff(br) {
			f, _ := r.(*os.File) // nil when r is no file: its Stat fails
			if st, err := f.Stat(); br == raw && err == nil {
				return sizedReader{br, int(st.Size())}, c, nil
			}
			return br, c, nil
		}
	}
	return nil, nil, errors.New("history: unrecognized encoding (want JSON, NDJSON or MTCB, optionally gzipped)")
}

// sizedReader is a buffered file whose Len is the file's size.
type sizedReader struct {
	*bufio.Reader
	n int
}

func (r sizedReader) Len() int { return r.n }

// maxSessions is the highest session number, and the largest declared
// session count, any codec accepts. Readers and their consumers size
// per-session tables by these numbers before the stream can vouch for
// them, so a hostile or corrupt value is refused, not allocated.
const maxSessions = 1 << 20

// TxnStream is the one transaction-source interface: StreamReader
// (NDJSON) and BinaryReader (MTCB) implement it, drain collects it into
// a History and core.CheckStreamCtx checks it online. A record with a
// negative session is the init transaction, and only the first may be.
//
// A Txn returned by Next — its Ops and their keys — stays valid after
// later calls, as CheckStreamCtx decodes ahead of the checker: both
// codecs carve Ops from chunks they never reuse and intern keys.
type TxnStream interface {
	// Next returns the next transaction in stream order, or io.EOF after
	// the last one. The first error is terminal: every later call
	// returns it again without reading further, so a caller that logs and
	// continues cannot resynchronise past a corrupt record.
	Next() (Txn, error)
	// DeclaredSessions returns the header's declared session count, or 0
	// when the writer did not know it.
	DeclaredSessions() int
}

// NewAutoStreamReader opens an incremental transaction decoder over r,
// sniffing the stream codec by content exactly like ReadAuto: a gzip
// layer is unwrapped first, then the MTCB magic selects the binary
// reader and the NDJSON header line the NDJSON reader (the only two
// codecs with a streaming decode). mtc-verify -stream verifies either
// capture format through it without a format flag.
func NewAutoStreamReader(r io.Reader) (TxnStream, error) {
	br, c, err := sniffCodec(r)
	if err != nil {
		return nil, err
	}
	if c.stream == nil {
		return nil, fmt.Errorf("history: a %s document has no streaming decode (want an .mtcb or .ndjson capture)", c.ext)
	}
	return c.stream(br)
}

// gunzip returns br itself, or — when br opens with the gzip magic
// (0x1f 0x8b) — a reader over its decompressed payload. prefix names
// the calling codec in the error.
func gunzip(br *bufio.Reader, prefix string) (*bufio.Reader, error) {
	if magic, err := br.Peek(2); err != nil || magic[0] != 0x1f || magic[1] != 0x8b {
		return br, nil
	}
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("%s: gzip: %w", prefix, err)
	}
	return bufio.NewReaderSize(zr, br.Size()), nil
}

// drainSlab is the Txn count of one collection slab in drain.
const drainSlab = 1024

// drain consumes the rest of ts into a validated History: the one-shot
// read of the NDJSON codec. Transactions are collected in fixed slabs
// and the table is assembled once at its exact size, so what a read
// allocates follows the records the stream delivered — never a count it
// declared — and a history's Txns are one allocation instead of an
// append chain's worth.
//
//mtc:hotpath — one slab per 1024 transactions, none per transaction
func drain(ts TxnStream) (*History, error) {
	var (
		slabs [][]Txn // the full slabs behind cur
		n     int
	)
	cur := make([]Txn, 0, drainSlab)
	for {
		t, err := ts.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(cur) == cap(cur) {
			slabs = append(slabs, cur)      //mtc:alloc-ok one header per slab
			cur = make([]Txn, 0, drainSlab) //mtc:alloc-ok the amortized slab cut
		}
		cur = append(cur, t)
		n++
	}
	var txns []Txn
	if n > 0 {
		txns = make([]Txn, 0, n)
		for _, slab := range append(slabs, cur) { //mtc:alloc-ok one header per slab
			txns = append(txns, slab...)
		}
	}
	return assemble(txns, ts.DeclaredSessions())
}

// assemble makes a decoded transaction table — ids dense and in order,
// a negative session only first — a validated History. Session lists
// are cut from one arena; a session that witnessed no transaction stays
// nil, and the header's declared session count restores the trailing
// empty ones (a per-transaction encoding cannot witness them).
func assemble(txns []Txn, declared int) (*History, error) {
	h := History{Txns: txns}
	var perS []int // transactions per session
	for i := range txns {
		if s := txns[i].Session; s >= 0 {
			for len(perS) <= s {
				perS = append(perS, 0) //mtc:alloc-ok one counter per session (bounded by maxSessions), amortized
			}
			perS[s]++
		}
	}
	if len(txns) > 0 {
		h.HasInit = txns[0].Session < 0
	}
	if ns := max(len(perS), declared); ns > 0 {
		h.Sessions = make([][]int, ns)
	}
	ids, at := make([]int, len(txns)), 0
	for s, c := range perS {
		if c > 0 {
			h.Sessions[s] = ids[at : at : at+c]
			at += c
		}
	}
	for i := range txns {
		if s := txns[i].Session; s >= 0 {
			h.Sessions[s] = append(h.Sessions[s], txns[i].ID)
		}
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return &h, nil
}

// sniffMTCB reports whether the buffered payload opens with the binary
// codec's magic.
func sniffMTCB(br *bufio.Reader) bool {
	magic, err := br.Peek(len(MTCBMagic))
	return err == nil && string(magic) == MTCBMagic
}

// sniffNDJSON reports whether the buffered payload opens with the
// streaming codec's self-identifying header line. The whole-file JSON
// encoder indents, so its first line never contains the format marker.
func sniffNDJSON(br *bufio.Reader) bool {
	buf, _ := br.Peek(len(NDJSONHeader) + 2)
	i := 0
	for i < len(buf) && (buf[i] == ' ' || buf[i] == '\t' || buf[i] == '\r' || buf[i] == '\n') {
		i++
	}
	return strings.HasPrefix(string(buf[i:]), `{"format":"mtc-ndjson"`)
}

// sniffJSON reports whether the buffered payload starts (after
// whitespace) like a JSON document: a '{' or '[' is the first
// non-whitespace byte.
func sniffJSON(br *bufio.Reader) bool {
	for n := 1; n <= 4096; n++ {
		buf, _ := br.Peek(n)
		if len(buf) < n {
			return false // whitespace-only or empty payload
		}
		switch buf[n-1] {
		case ' ', '\t', '\r', '\n':
		case '{', '[':
			return true
		default:
			return false
		}
	}
	return false
}
