package history

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// TestMTCBRoundTrip: the binary codec reproduces the fixture (and an
// init-free history) byte-for-byte through DeepEqual, like NDJSON.
func TestMTCBRoundTrip(t *testing.T) {
	for _, withInit := range []bool{true, false} {
		var h *History
		if withInit {
			h = ndjsonFixture()
		} else {
			b := NewBuilder()
			b.Txn(0, W("x", 1), R("x", 1))
			b.Txn(1, R("x", 1))
			h = b.Build()
		}
		var buf bytes.Buffer
		if err := WriteMTCB(&buf, h); err != nil {
			t.Fatalf("withInit=%v: write: %v", withInit, err)
		}
		got, err := ReadMTCB(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("withInit=%v: read: %v", withInit, err)
		}
		if !reflect.DeepEqual(got, h) {
			t.Fatalf("withInit=%v: round trip mismatch:\n got %+v\nwant %+v", withInit, got, h)
		}
	}
}

// TestMTCBRandomizedRoundTrip hammers the binary codec with the
// adversarial random histories the index equivalence suite uses,
// loading back through the ReadAuto sniffer.
func TestMTCBRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		h := randomHistory(rng)
		var buf bytes.Buffer
		if err := WriteMTCB(&buf, h); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		got, err := ReadAuto(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: read: %v", trial, err)
		}
		if !reflect.DeepEqual(got, h) {
			t.Fatalf("trial %d: round trip mismatch:\n got %+v\nwant %+v", trial, got, h)
		}
	}
}

// TestMTCBStreamingWriter: a BinaryWriter that learns keys as
// transactions arrive (inline key-definition records, no preloaded
// table) produces a document equal to the whole-history encoder's.
func TestMTCBStreamingWriter(t *testing.T) {
	h := ndjsonFixture()
	var buf bytes.Buffer
	bw, err := NewBinaryWriter(&buf, len(h.Sessions))
	if err != nil {
		t.Fatal(err)
	}
	for i := range h.Txns {
		tx := h.Txns[i]
		if h.HasInit && i == 0 {
			tx.Session = -1
		}
		if err := bw.WriteTxn(tx); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := NewBinaryReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sr.DeclaredSessions() != len(h.Sessions) {
		t.Fatalf("declared %d sessions, want %d", sr.DeclaredSessions(), len(h.Sessions))
	}
	got, err := drain(sr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("streamed round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
	if !sr.HasInit() || sr.NumTxns() != len(h.Txns) {
		t.Fatalf("HasInit=%v NumTxns=%d, want true/%d", sr.HasInit(), sr.NumTxns(), len(h.Txns))
	}
}

// TestMTCBWriterEnforcesContract: dense ids, init first, no negative
// sessions, no writes after Close.
func TestMTCBWriterEnforcesContract(t *testing.T) {
	newW := func() *BinaryWriter {
		bw, err := NewBinaryWriter(io.Discard, 0)
		if err != nil {
			t.Fatal(err)
		}
		return bw
	}
	if err := newW().WriteTxn(Txn{ID: 3, Committed: true}); err == nil {
		t.Fatal("out-of-order id accepted")
	}
	if err := newW().WriteTxn(Txn{ID: 0, Session: -2, Committed: true}); err == nil {
		t.Fatal("session -2 accepted")
	}
	bw := newW()
	if err := bw.WriteTxn(Txn{ID: 0, Session: 0, Committed: true}); err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteTxn(Txn{ID: 1, Session: -1, Committed: true}); err == nil {
		t.Fatal("late init accepted")
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteTxn(Txn{ID: 1, Session: 0, Committed: true}); err == nil {
		t.Fatal("write after Close accepted")
	}
}

// mtcbEncode serializes h, failing the test on error.
func mtcbEncode(t *testing.T, h *History) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMTCB(&buf, h); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMTCBRejectsTruncation: a document cut anywhere before the
// end-of-stream record must fail loudly, never decode silently short —
// the binary analog of the NDJSON truncated-final-line rejection.
func TestMTCBRejectsTruncation(t *testing.T) {
	doc := mtcbEncode(t, ndjsonFixture())
	for cut := 0; cut < len(doc); cut++ {
		if _, err := ReadMTCB(bytes.NewReader(doc[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(doc))
		}
	}
	if _, err := ReadMTCB(bytes.NewReader(doc)); err != nil {
		t.Fatalf("full document rejected: %v", err)
	}
}

// TestMTCBRejectsGarbage: structurally corrupt documents surface errors.
func TestMTCBRejectsGarbage(t *testing.T) {
	valid := mtcbEncode(t, ndjsonFixture())
	flip := func(off int, b byte) []byte {
		d := append([]byte(nil), valid...)
		d[off] = b
		return d
	}
	cases := map[string][]byte{
		"bad magic":       flip(0, 'X'),
		"bad version":     flip(4, 9),
		"empty":           {},
		"magic only":      []byte(MTCBMagic),
		"dup key table":   {'M', 'T', 'C', 'B', 1, 0, 2, 1, 'x', 1, 'x', 0x00},
		"unknown tag":     {'M', 'T', 'C', 'B', 1, 0, 0, 0x7f},
		"bad committed":   {'M', 'T', 'C', 'B', 1, 0, 0, 0x01, 0, 0, 0, 2, 0, 0x00},
		"unknown key id":  {'M', 'T', 'C', 'B', 1, 0, 0, 0x01, 0, 0, 0, 1, 1, 2, 2, 0x00},
		"late init":       {'M', 'T', 'C', 'B', 1, 0, 0, 0x01, 0, 0, 0, 1, 0, 0x01, 1, 0, 0, 1, 0, 0x00},
		"huge key length": {'M', 'T', 'C', 'B', 1, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, doc := range cases {
		if _, err := ReadMTCB(bytes.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestMTCBErrorIsTerminal: after a corrupt record the reader stays
// failed, even though the bytes behind it are a well-formed transaction
// record and end-of-stream marker it could resynchronise on.
func TestMTCBErrorIsTerminal(t *testing.T) {
	txn := []byte{0x01, 0, 0, 0, 1, 0} // session 0, no stamps, committed, no ops
	doc := append([]byte{'M', 'T', 'C', 'B', 1, 0, 0}, txn...)
	doc = append(doc, 0x7f) // unknown tag
	doc = append(append(doc, txn...), 0x00)
	br, err := NewBinaryReader(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := br.Next(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	_, first := br.Next()
	if first == nil || first == io.EOF {
		t.Fatalf("unknown tag: got %v", first)
	}
	for i := 0; i < 3; i++ {
		if txn, err := br.Next(); err != first {
			t.Fatalf("call %d after the error: (%v, %v), want the same error again", i, txn, err)
		}
	}
	if br.NumTxns() != 1 {
		t.Fatalf("NumTxns = %d after resynchronising, want 1", br.NumTxns())
	}
}

// TestMTCBGzipTransparent: BinaryReader sniffs gzip on its own, like
// StreamReader and ReadAuto.
func TestMTCBGzipTransparent(t *testing.T) {
	h := ndjsonFixture()
	plain := mtcbEncode(t, h)
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	if _, err := zw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMTCB(bytes.NewReader(zipped.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatal("gzip round trip mismatch")
	}
	// And through the sniffer.
	got, err = ReadAuto(bytes.NewReader(zipped.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatal("gzip ReadAuto round trip mismatch")
	}
}

// TestMTCBIndexedEquivalence: ReadMTCBIndexed must produce an Index
// indistinguishable from NewIndex over the decoded history — same keys,
// footprints, writer postings, dups, aborted postings — on the
// randomized corpus. This is the zero-copy decode correctness contract.
func TestMTCBIndexedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 150; trial++ {
		h := randomHistory(rng)
		got, err := ReadMTCBIndexed(bytes.NewReader(mtcbEncode(t, h)))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got.History(), h) {
			t.Fatalf("trial %d: decoded history mismatch", trial)
		}
		want := NewIndex(h)
		compareIndexes(t, trial, got, want)
	}
}

// compareIndexes asserts two indexes agree through every accessor.
func compareIndexes(t *testing.T, trial int, got, want *Index) {
	t.Helper()
	if got.NumTxns() != want.NumTxns() || got.NumKeys() != want.NumKeys() ||
		got.NumReads() != want.NumReads() || got.NumWriterSlots() != want.NumWriterSlots() {
		t.Fatalf("trial %d: cardinality mismatch (%d,%d,%d,%d) vs (%d,%d,%d,%d)", trial,
			got.NumTxns(), got.NumKeys(), got.NumReads(), got.NumWriterSlots(),
			want.NumTxns(), want.NumKeys(), want.NumReads(), want.NumWriterSlots())
	}
	for ti := 0; ti < want.NumTxns(); ti++ {
		grk, grv := got.Reads(ti)
		wrk, wrv := want.Reads(ti)
		gwk, gwv := got.Writes(ti)
		wwk, wwv := want.Writes(ti)
		if !equalCols(grk, grv, wrk, wrv) || !equalCols(gwk, gwv, wwk, wwv) {
			t.Fatalf("trial %d txn %d: footprint mismatch\n reads (%v,%v) vs (%v,%v)\n writes (%v,%v) vs (%v,%v)",
				trial, ti, grk, grv, wrk, wrv, gwk, gwv, wwk, wwv)
		}
	}
	for id := KeyID(0); int(id) < want.NumKeys(); id++ {
		if got.KeyName(id) != want.KeyName(id) {
			t.Fatalf("trial %d: KeyName(%d) %q vs %q", trial, id, got.KeyName(id), want.KeyName(id))
		}
		if !reflect.DeepEqual(got.WritersOf(id), want.WritersOf(id)) {
			t.Fatalf("trial %d: WritersOf(%d) %v vs %v", trial, id, got.WritersOf(id), want.WritersOf(id))
		}
		for v := Value(-1); v < 21; v++ {
			if got.Writer(id, v) != want.Writer(id, v) {
				t.Fatalf("trial %d: Writer(%d,%d) %d vs %d", trial, id, v, got.Writer(id, v), want.Writer(id, v))
			}
			if got.AbortedWriter(id, v) != want.AbortedWriter(id, v) {
				t.Fatalf("trial %d: AbortedWriter(%d,%d) mismatch", trial, id, v)
			}
		}
	}
	if !reflect.DeepEqual(got.Dups(), want.Dups()) {
		t.Fatalf("trial %d: Dups %v vs %v", trial, got.Dups(), want.Dups())
	}
}

func equalCols(ak []KeyID, av []Value, bk []KeyID, bv []Value) bool {
	if len(ak) != len(bk) {
		return false
	}
	for i := range ak {
		if ak[i] != bk[i] || av[i] != bv[i] {
			return false
		}
	}
	return true
}

// TestMTCBIndexedUnsortedTable: a streaming writer's key table arrives
// in first-seen order; the indexed decode must still deliver
// lexicographic KeyIDs via the wire-id remap.
func TestMTCBIndexedUnsortedTable(t *testing.T) {
	b := NewBuilder()
	b.Txn(0, W("zebra", 1), W("apple", 2))
	b.Txn(0, R("zebra", 1), W("mango", 3))
	h := b.Build()
	var buf bytes.Buffer
	bw, err := NewBinaryWriter(&buf, len(h.Sessions))
	if err != nil {
		t.Fatal(err)
	}
	for i := range h.Txns {
		if err := bw.WriteTxn(h.Txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := ReadMTCBIndexed(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	compareIndexes(t, 0, ix, NewIndex(h))
	if ix.KeyName(0) != "apple" || ix.KeyName(2) != "zebra" {
		t.Fatalf("keys not re-ranked lexicographically: %q, %q, %q", ix.KeyName(0), ix.KeyName(1), ix.KeyName(2))
	}
}

// TestMTCBFrameArena: successive frames decoded through one IngestArena
// share interned key strings and chunked Op slices, and the decoded
// transactions still match a plain decode. Capacity clipping must keep
// one transaction's ops from bleeding into its neighbor's.
func TestMTCBFrameArena(t *testing.T) {
	arena := NewIngestArena()
	var all []Txn
	for frame := 0; frame < 3; frame++ {
		b := NewBuilder()
		b.Txn(0, W("x", Value(10*frame+1)), R("y", 0))
		b.Txn(1, W("y", Value(10*frame+2)))
		h := b.Build()
		doc := mtcbEncode(t, h)
		fr, err := NewBinaryFrameReader(bytes.NewReader(doc), arena)
		if err != nil {
			t.Fatalf("frame %d: %v", frame, err)
		}
		for {
			tx, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("frame %d: %v", frame, err)
			}
			all = append(all, tx)
		}
	}
	if arena.NumKeys() != 2 {
		t.Fatalf("arena interned %d keys, want 2 (x, y shared across frames)", arena.NumKeys())
	}
	if len(all) != 6 {
		t.Fatalf("decoded %d txns, want 6", len(all))
	}
	// Earlier transactions must be unscathed by later frame decodes
	// (chunk carving, capacity clipping).
	if all[0].Ops[0] != (Op{Kind: OpWrite, Key: "x", Value: 1}) || all[0].Ops[1] != (Op{Kind: OpRead, Key: "y", Value: 0}) {
		t.Fatalf("first txn ops corrupted: %v", all[0].Ops)
	}
	if got := all[5].Ops[0]; got != (Op{Kind: OpWrite, Key: "y", Value: 22}) {
		t.Fatalf("last txn ops wrong: %v", got)
	}
	// Appending to one txn's ops must not clobber the next slice.
	probe := all[0].Ops
	_ = append(probe, Op{Key: "poison"})
	if all[1].Ops[0].Key == "poison" {
		t.Fatal("arena slices share capacity: append bled into neighbor")
	}
}

// TestMTCBDeclaredSessionsRestoreEmpties mirrors the NDJSON contract:
// a declared session count restores transaction-less sessions.
func TestMTCBDeclaredSessionsRestoreEmpties(t *testing.T) {
	h := &History{
		Txns:     []Txn{{ID: 0, Session: 0, Ops: []Op{W("x", 1)}, Committed: true}},
		Sessions: [][]int{{0}, nil, nil},
	}
	got, err := ReadMTCB(bytes.NewReader(mtcbEncode(t, h)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sessions) != 3 {
		t.Fatalf("restored %d sessions, want 3", len(got.Sessions))
	}
}

// allocatedBy returns the bytes f allocated (runtime.MemStats.TotalAlloc
// delta; the test binary runs nothing else meanwhile).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMTCBHostileSizesAllocateByBytesConsumed: what a one-shot read
// allocates before it fails follows the bytes the stream delivered —
// a constant (buffers, one op chunk, one slab) plus a small multiple of
// them — never a count the document merely declares.
func TestMTCBHostileSizesAllocateByBytesConsumed(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	header := func(nkeys uint64, keys ...string) []byte {
		doc := append([]byte(MTCBMagic), mtcbVersion)
		doc = append(doc, uv(1)...) // one declared session
		doc = append(doc, uv(nkeys)...)
		for _, k := range keys {
			doc = append(append(doc, uv(uint64(len(k)))...), k...)
		}
		return doc
	}
	txnHead := []byte{mtcbTagTxn, 0 /* session 0 */, 0, 0 /* start, finish */, 1 /* committed */}

	// A transaction declaring 4096 ops — the largest count trusted
	// without proof — and 2^24, the largest accepted, with nothing behind.
	ops4096 := append(append(header(1, "x"), txnHead...), uv(mtcbOpsPrealloc)...)
	ops16M := append(append(header(1, "x"), txnHead...), uv(mtcbMaxOps)...)
	// A key table declaring 2^40 entries over an empty stream.
	keys2to40 := header(1 << 40)
	// A valid 2500-transaction stream cut in the middle of its third slab.
	var long bytes.Buffer
	if err := WriteMTCB(&long, SerialHistory(2500, "x", "y")); err != nil {
		t.Fatal(err)
	}
	cut := long.Bytes()[:long.Len()*9/10]

	// One 4096-op chunk, one 1024-txn slab, the bufio window and the
	// reader's tables: everything a read holds before the first byte.
	const fixed = ingestArenaChunk*unsafe.Sizeof(Op{}) + drainSlab*unsafe.Sizeof(Txn{}) + 32<<10
	for _, tc := range []struct {
		name, wantErr string
		doc           []byte
	}{
		{"4096 ops declared, none sent", "truncated txn record 0", ops4096},
		{"2^24 ops declared, none sent", "truncated txn record 0", ops16M},
		{"2^40 keys declared, none sent", "truncated key table", keys2to40},
		{"cut inside the third slab", "truncated", cut},
	} {
		if len(tc.doc) >= 64 && tc.name != "cut inside the third slab" {
			t.Fatalf("%s: document is %d bytes, want < 64", tc.name, len(tc.doc))
		}
		for _, read := range []struct {
			name string
			f    func(io.Reader) error
		}{
			{"ReadMTCB", func(r io.Reader) error { _, err := ReadMTCB(r); return err }},
			{"ReadMTCBIndexed", func(r io.Reader) error { _, err := ReadMTCBIndexed(r); return err }},
		} {
			var err error
			got := allocatedBy(func() { err = read.f(bytes.NewReader(tc.doc)) })
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("%s: %s: error %v, want %q", tc.name, read.name, err, tc.wantErr)
			}
			if limit := uint64(fixed) + 16*uint64(len(tc.doc)); got > limit {
				t.Fatalf("%s: %s allocated %d bytes reading %d, limit %d", tc.name, read.name, got, len(tc.doc), limit)
			}
		}
	}
}

// TestWriteMTCBPinnedBytes pins the MTCB writer's output: every history
// of the committed digest corpus (internal/checker/testdata/corpus) is
// re-encoded once with WriteMTCB (a sorted header key table) and once
// through a BinaryWriter with an empty table (every key defined inline),
// and the SHA-256 of all those bytes must not move. A writer change
// that alters a single byte is a wire-format change, not a speedup.
func TestWriteMTCBPinnedBytes(t *testing.T) {
	const want = "ebf16501f27f6acd904b4467ec7f6ff0b13d754900b8ce654c107364ba9c5989"
	files, err := filepath.Glob("../checker/testdata/corpus/*.mtcb")
	if err != nil || len(files) != 12 {
		t.Fatalf("corpus files: %v (%v)", files, err)
	}
	sum := sha256.New()
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := ReadMTCB(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := WriteMTCB(sum, h); err != nil {
			t.Fatalf("%s: WriteMTCB: %v", name, err)
		}
		bw, err := NewBinaryWriter(sum, len(h.Sessions))
		if err != nil {
			t.Fatal(err)
		}
		for i, txn := range h.Txns {
			if h.HasInit && i == 0 {
				txn.Session = -1
			}
			if err := bw.WriteTxn(txn); err != nil {
				t.Fatalf("%s: WriteTxn %d: %v", name, i, err)
			}
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Fatalf("MTCB output moved: sha256 %s, want %s", got, want)
	}
}
