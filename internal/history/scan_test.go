package history

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// referenceTxn is the decode scanTxn must be indistinguishable from:
// the reader's own encoding/json route — the whole line, unknown fields
// refused, nothing but closing brackets or whitespace after the record
// — which was every line's route before the scanner existed.
func referenceTxn(line []byte) (Txn, error) {
	return (&StreamReader{}).decode(line)
}

// streamResult is everything a consumer can observe of a StreamReader
// run to its first error.
type streamResult struct {
	Txns     []Txn
	Err      string
	HasInit  bool
	Declared int
}

func runStream(data []byte) streamResult {
	sr, err := NewStreamReader(bytes.NewReader(data))
	if err != nil {
		return streamResult{Err: err.Error()}
	}
	res := streamResult{Declared: sr.DeclaredSessions()}
	for {
		t, err := sr.Next()
		if err != nil {
			if err != io.EOF {
				res.Err = err.Error()
			}
			break
		}
		res.Txns = append(res.Txns, t)
	}
	res.HasInit = len(res.Txns) > 0 && res.Txns[0].Session < 0
	return res
}

// referenceStream is the parent commit's reader — ReadBytes for the
// line, encoding/json for every record — sharing the header parse and
// the fallback decode with the reader under test, and nothing else.
func referenceStream(data []byte) streamResult {
	sr, err := NewStreamReader(bytes.NewReader(data))
	if err != nil {
		return streamResult{Err: err.Error()}
	}
	res := streamResult{Declared: sr.DeclaredSessions()}
	fail := func(format string, args ...any) streamResult {
		res.Err = fmt.Sprintf("history: ndjson: "+format, args...)
		return res
	}
	for {
		raw, err := sr.br.ReadBytes('\n')
		if err == io.EOF {
			if len(raw) > 0 {
				return fail("truncated record at line %d", sr.line+1)
			}
			return res
		}
		sr.line++
		raw = bytes.TrimRight(raw, "\r\n")
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		t, err := sr.decode(raw)
		switch {
		case err != nil:
			res.Err = err.Error()
			return res
		case t.ID != len(res.Txns):
			return fail("line %d: txn id %d out of order (want %d)", sr.line, t.ID, len(res.Txns))
		case t.Session < -1 || t.Session > maxSessions:
			return fail("line %d: implausible session %d", sr.line, t.Session)
		case t.Session < 0 && t.ID != 0:
			return fail("line %d: init transaction must be first", sr.line)
		}
		res.HasInit = res.HasInit || t.Session < 0
		res.Txns = append(res.Txns, t)
	}
}

// checkAgainstReference holds one line to the scanner's contract:
// whenever scanTxn accepts — with or without an arena — the reference
// decode accepts too and yields the same Txn, and Txn.UnmarshalJSON is
// encoding/json's own struct decode of the same bytes.
func checkAgainstReference(t testing.TB, line []byte) (fast bool) {
	t.Helper()
	want, werr := referenceTxn(line)
	for _, arena := range []*IngestArena{nil, NewIngestArena()} {
		got, ok := scanTxn(line, arena)
		if !ok {
			if arena != nil && len(arena.free) != 0 && len(arena.free) != ingestArenaChunk {
				t.Fatalf("%q: declined but took %d ops from the arena", line, ingestArenaChunk-len(arena.free))
			}
			continue
		}
		fast = true
		if werr != nil {
			t.Fatalf("%q: scanTxn accepted what the reference rejects: %v", line, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: scanTxn %#v, reference %#v", line, got, want)
		}
	}
	var viaMethod, viaJSON Txn
	merr := json.Unmarshal(line, &viaMethod)
	jerr := json.Unmarshal(line, viaJSON.fields())
	if (merr == nil) != (jerr == nil) || !reflect.DeepEqual(viaMethod, viaJSON) {
		t.Fatalf("%q: UnmarshalJSON (%#v, %v), encoding/json (%#v, %v)", line, viaMethod, merr, viaJSON, jerr)
	}
	return fast
}

const canon = `{"id":0,"sess":0,"ops":[{"k":1,"key":"x","v":7}],"start":1,"finish":2,"committed":true}`

// TestScanTxnNearMisses walks the border of the canonical spelling.
// want is what the parent commit's reader answers for the line as the
// first record of a stream — "" for a decoded transaction, else the
// error after the "history: ndjson: line 2: " prefix — and fast says on
// which side of the border the line falls.
func TestScanTxnNearMisses(t *testing.T) {
	re := func(old, new string) string {
		if !strings.Contains(canon, old) {
			t.Fatalf("canon has no %q", old)
		}
		return strings.Replace(canon, old, new, 1)
	}
	const typeErr = "json: cannot unmarshal number %s into Go struct field %s of type %s"
	cases := []struct {
		name, line string
		fast       bool
		want       string
	}{
		{"canonical", canon, true, ""},
		{"aborted", re("true", "false"), true, ""},
		{"ops null", re(`[{"k":1,"key":"x","v":7}]`, "null"), true, ""},
		{"ops empty", re(`[{"k":1,"key":"x","v":7}]`, "[]"), true, ""},
		{"two ops", re(`}]`, `},{"k":0,"key":"","v":-7}]`), true, ""},
		{"init", re(`"sess":0`, `"sess":-1`), true, ""},
		{"negative stamps", re(`"start":1,"finish":2`, `"start":-9,"finish":-3`), true, ""},
		{"k 2", re(`"k":1`, `"k":2`), true, ""},
		{"k 255", re(`"k":1`, `"k":255`), true, ""},
		{"int64 max", re(`"v":7`, `"v":9223372036854775807`), true, ""},
		{"int64 min", re(`"v":7`, `"v":-9223372036854775808`), true, ""},
		{"19 digits", re(`"finish":2`, `"finish":1700000000000000000`), true, ""},
		{"non-ascii key", re(`"key":"x"`, `"key":"clé-ключ-鍵"`), true, ""},
		{"key spelling an op", re(`"key":"x"`, `"key":"},{'k':"`), true, ""},

		{"leading space", " " + canon, false, ""},
		{"trailing space", canon + " ", false, ""},
		{"inner space", re(`"id":0`, `"id": 0`), false, ""},
		{"space in ops", re(`[{`, `[ {`), false, ""},
		{"crlf", canon + "\r", true, ""}, // the reader trims \r before the scanner sees it
		{"reordered", `{"sess":0,"id":0,"ops":[],"start":0,"finish":0,"committed":true}`, false, ""},
		{"reordered op", re(`"k":1,"key":"x"`, `"key":"x","k":1`), false, ""},
		{"case ID", re(`"id"`, `"ID"`), false, ""},
		{"case Sess", re(`"sess"`, `"Sess"`), false, ""},
		{"duplicate field", re(`"id":0,`, `"id":5,"id":0,`), false, ""},
		{"missing committed", re(`,"committed":true`, ``), false, ""},
		{"missing ops", re(`"ops":[{"k":1,"key":"x","v":7}],`, ``), false, ""},
		{"minus zero", re(`"v":7`, `"v":-0`), false, ""},
		{"raw lt", re(`"key":"x"`, `"key":"<"`), true, ""},
		{"escaped lt", re(`"key":"x"`, `"key":"\u003c"`), false, ""},
		{"escaped quote", re(`"key":"x"`, `"key":"\""`), false, ""},
		{"invalid utf8 key", re(`"key":"x"`, "\"key\":\"\xff\""), false, ""},
		{"trailing brace", canon + "}", false, ""},
		{"trailing bracket", canon + " ]", false, ""},

		{"unknown field", re(`"start"`, `"bogus":1,"start"`), false, `json: unknown field "bogus"`},
		{"unknown op field", re(`"v":7`, `"v":7,"w":1`), false, `json: unknown field "w"`},
		{"leading zeros", re(`"v":7`, `"v":007`), false, "invalid character '0' after object key:value pair"},
		{"exponent", re(`"v":7`, `"v":1e3`), false, fmt.Sprintf(typeErr, "1e3", "Op.ops.v", "history.Value")},
		{"fraction", re(`"id":0`, `"id":1.0`), false, fmt.Sprintf(typeErr, "1.0", "Txn.id", "int")},
		{"20 digits", re(`"v":7`, `"v":12345678901234567890`), false, fmt.Sprintf(typeErr, "12345678901234567890", "Op.ops.v", "history.Value")},
		{"int64 max + 1", re(`"v":7`, `"v":9223372036854775808`), false, fmt.Sprintf(typeErr, "9223372036854775808", "Op.ops.v", "history.Value")},
		{"int64 min - 1", re(`"start":1`, `"start":-9223372036854775809`), false, fmt.Sprintf(typeErr, "-9223372036854775809", "Txn.start", "int64")},
		{"k 256", re(`"k":1`, `"k":256`), false, fmt.Sprintf(typeErr, "256", "Op.ops.k", "history.OpKind")},
		{"k -1", re(`"k":1`, `"k":-1`), false, fmt.Sprintf(typeErr, "-1", "Op.ops.k", "history.OpKind")},
		{"string id", re(`"id":0`, `"id":"0"`), false, "json: cannot unmarshal string into Go struct field Txn.id of type int"},
		{"control byte in key", re(`"key":"x"`, "\"key\":\"\x01\""), false, "invalid character '\\x01' in string literal"},
		{"empty ops element", re(`[{"k":1,"key":"x","v":7}]`, `[,]`), false, "invalid character ',' looking for beginning of value"},
		{"dangling comma", re(`}]`, `},]`), false, "invalid character ']' looking for beginning of value"},
		{"trailing object", canon + ` {"x":1}`, false, "trailing data after record"},
		{"trailing bytes", canon + "x", false, "trailing data after record"},
		{"cut short", canon[:len(canon)-1], false, "unexpected EOF"},
		{"not json", "not json", false, "invalid character 'o' in literal null (expecting 'u')"},
	}
	for _, c := range cases {
		line := strings.TrimRight(c.line, "\r")
		if fast := checkAgainstReference(t, []byte(line)); fast != c.fast {
			t.Errorf("%s: fast path taken = %v, want %v", c.name, fast, c.fast)
		}
		doc := []byte(NDJSONHeader + "\n" + c.line + "\n")
		got, ref := runStream(doc), referenceStream(doc)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: reader %+v, reference %+v", c.name, got, ref)
		}
		want := ""
		if c.want != "" {
			want = "history: ndjson: line 2: " + c.want
		}
		if got.Err != want || (want == "" && len(got.Txns) != 1) {
			t.Errorf("%s: got %d txns, error %q; the parent commit answers %q", c.name, len(got.Txns), got.Err, want)
		}
	}
}

// randomCanonicalTxn draws a transaction from everything a writer can
// hand json.Marshal without forcing an escape into a key.
func randomCanonicalTxn(rng *rand.Rand) Txn {
	num := func() int64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.MaxInt64
		case 2:
			return math.MinInt64
		case 3:
			return rng.Int63n(1000) - 500
		}
		return int64(rng.Uint64())
	}
	keys := []Key{"", "x", "acct0042", "a b", "{}[]:,", "clé", "ключ", "鍵", "k"}
	t := Txn{
		ID: int(num()), Session: rng.Intn(40) - 1,
		Start: num(), Finish: num(), Committed: rng.Intn(4) != 0,
	}
	switch n := rng.Intn(6); n {
	case 0: // nil Ops: "ops":null
	case 1:
		t.Ops = []Op{}
	default:
		t.Ops = make([]Op, n)
		for i := range t.Ops {
			t.Ops[i] = Op{Kind: OpKind(rng.Intn(2)), Key: keys[rng.Intn(len(keys))], Value: Value(num())}
		}
	}
	return t
}

// TestMarshalTakesFastPath pins the writer to the scanner: whatever
// json.Marshal emits for a Txn is a canonical record. A new field, a
// changed tag or a reordered struct fails here instead of silently
// demoting every line to the encoding/json route.
func TestMarshalTakesFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	arena := NewIngestArena()
	for trial := 0; trial < 2000; trial++ {
		want := randomCanonicalTxn(rng)
		line, err := json.Marshal(&want)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []*IngestArena{nil, arena} {
			got, ok := scanTxn(line, a)
			if !ok {
				t.Fatalf("trial %d: scanTxn declined json.Marshal's own output %s", trial, line)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %s decoded as %#v, want %#v", trial, line, got, want)
			}
		}
		checkAgainstReference(t, line)
	}
}

// TestScanTxnAllocations: a line of known keys costs the arena path
// nothing, and the no-arena path exactly its Ops slice and key strings.
func TestScanTxnAllocations(t *testing.T) {
	line := []byte(`{"id":3,"sess":1,"ops":[{"k":0,"key":"acct0001","v":7},{"k":1,"key":"acct0001","v":8}],"start":5,"finish":9,"committed":true}`)
	arena := NewIngestArena()
	if _, ok := scanTxn(line, arena); !ok {
		t.Fatal("canonical line declined")
	}
	chunkEvery := float64(ingestArenaChunk / 2)
	if got := testing.AllocsPerRun(1000, func() { scanTxn(line, arena) }); got > 2/chunkEvery {
		t.Errorf("arena path: %.4f allocs/line, want only the chunk cut every %v lines", got, chunkEvery)
	}
	var txn Txn
	if got := testing.AllocsPerRun(1000, func() { txn.UnmarshalJSON(line) }); got != 3 {
		t.Errorf("UnmarshalJSON: %.1f allocs, want 3 (Ops + two key strings)", got)
	}
}

// TestIngestArenaInternCacheRestarts: the intern table is a cache with a
// ceiling, and keys it handed out before a restart stay intact.
func TestIngestArenaInternCacheRestarts(t *testing.T) {
	a := NewIngestArena()
	first := a.internBytes([]byte("k0"))
	for i := 1; i < 3*ingestArenaMaxKeys; i++ {
		a.internBytes([]byte(fmt.Sprintf("k%d", i)))
		if a.NumKeys() > ingestArenaMaxKeys {
			t.Fatalf("table holds %d keys after %d distinct ones, ceiling %d", a.NumKeys(), i+1, ingestArenaMaxKeys)
		}
	}
	if first != "k0" || a.internBytes([]byte("k0")) != "k0" {
		t.Fatalf("key corrupted across restarts: %q", first)
	}
}

// TestStreamReaderLongLines: lines longer than the read buffer take the
// spill path (several times over, with a short line between) and decode
// like any other.
func TestStreamReaderLongLines(t *testing.T) {
	wide := func(id, ops int) Txn {
		t := Txn{ID: id, Session: id - 1, Committed: true, Ops: make([]Op, ops)}
		for i := range t.Ops {
			t.Ops[i] = Op{Kind: OpWrite, Key: Key(fmt.Sprintf("key-%06d", i)), Value: Value(i)}
		}
		return t
	}
	want := []Txn{wide(0, 3*ndjsonReadBuf/30), wide(1, 2), wide(2, 5*ndjsonReadBuf/30), wide(3, ndjsonReadBuf/30)}
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, txn := range want {
		if err := sw.WriteTxn(txn); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	got := runStream(buf.Bytes())
	if got.Err != "" || !reflect.DeepEqual(got.Txns, want) || !got.HasInit {
		t.Fatalf("long lines: error %q, %d txns", got.Err, len(got.Txns))
	}
	if ref := referenceStream(buf.Bytes()); !reflect.DeepEqual(got, ref) {
		t.Fatal("long lines: reader diverged from the reference")
	}
}

// TestScanOpsAtTheChunkBoundary: a transaction one op short of a chunk,
// exactly a chunk and one op over it, each met by a fresh arena and by a
// partly used one and each followed by further records, keeps its ops:
// whichever of "in the chunk" and "a slice of its own" the scan ends on,
// commit agrees, and the next record is not written over it.
func TestScanOpsAtTheChunkBoundary(t *testing.T) {
	txn := func(id, ops int) Txn {
		t := Txn{ID: id, Session: id - 1, Start: int64(2 * id), Finish: int64(2*id + 1), Committed: true, Ops: make([]Op, ops)}
		for i := range t.Ops {
			t.Ops[i] = Op{Kind: OpWrite, Key: Key(fmt.Sprintf("k%d", i%7)), Value: Value(id*ingestArenaChunk*2 + i)}
		}
		return t
	}
	for _, n := range []int{ingestArenaChunk - 1, ingestArenaChunk, ingestArenaChunk + 1} {
		for _, lead := range []int{0, 3} {
			var want []Txn
			if lead > 0 {
				want = append(want, txn(0, lead))
			}
			for _, ops := range []int{n, 2, n, n, 1} {
				want = append(want, txn(len(want), ops))
			}
			name := fmt.Sprintf("%d ops after %d", n, lead)

			var buf bytes.Buffer
			sw, err := NewStreamWriter(&buf, len(want))
			if err != nil {
				t.Fatal(err)
			}
			for _, txn := range want {
				if err := sw.WriteTxn(txn); err != nil {
					t.Fatal(err)
				}
			}
			if err := sw.Flush(); err != nil {
				t.Fatal(err)
			}
			got := runStream(buf.Bytes())
			if got.Err != "" || !reflect.DeepEqual(got.Txns, want) {
				t.Errorf("%s: the NDJSON reader lost ops (error %q, %d txns)", name, got.Err, len(got.Txns))
			}
			if ref := referenceStream(buf.Bytes()); !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: the NDJSON reader diverged from the reference", name)
			}

			// The MTCB reader carves from the same chunks, by reserve.
			var frames bytes.Buffer
			bw, err := NewBinaryWriter(&frames, len(want))
			if err != nil {
				t.Fatal(err)
			}
			for _, txn := range want {
				if err := bw.WriteTxn(txn); err != nil {
					t.Fatal(err)
				}
			}
			if err := bw.Close(); err != nil {
				t.Fatal(err)
			}
			br, err := NewBinaryFrameReader(&frames, NewIngestArena())
			if err != nil {
				t.Fatal(err)
			}
			var viaMTCB []Txn
			for {
				txn, err := br.Next()
				if err != nil {
					if err != io.EOF {
						t.Fatal(err)
					}
					break
				}
				viaMTCB = append(viaMTCB, txn)
			}
			if !reflect.DeepEqual(viaMTCB, want) {
				t.Errorf("%s: the MTCB reader lost ops (%d txns)", name, len(viaMTCB))
			}

			doc, err := json.Marshal(&History{Txns: want, HasInit: true})
			if err != nil {
				t.Fatal(err)
			}
			arena := NewIngestArena()
			arena.commit(len(arena.reserve(lead)))
			h, end := ScanDocument(doc, 0, arena)
			if end != len(doc) || !reflect.DeepEqual(h.Txns, want) {
				t.Errorf("%s: ScanDocument lost ops (ended at %d of %d)", name, end, len(doc))
			}
			if !checkDocument(t, doc) {
				t.Errorf("%s: canonical document declined", name)
			}
		}
	}
}

// hostileSessionDocs are inputs whose session numbers used to make the
// codecs allocate until the process died.
var hostileSessionDocs = map[string]string{
	"ndjson record":          NDJSONHeader + "\n" + `{"id":0,"sess":3000000000,"ops":[],"start":0,"finish":0,"committed":true}` + "\n",
	"ndjson record, spelled": NDJSONHeader + "\n" + `{"sess":3000000000,"id":0,"ops":[],"start":0,"finish":0,"committed":true}` + "\n",
	"ndjson header":          `{"format":"mtc-ndjson","version":1,"sessions":1000000000000}` + "\n",
	"ndjson header, negative": `{"format":"mtc-ndjson","version":1,"sessions":-5}` + "\n" +
		`{"id":0,"sess":0,"ops":[],"start":0,"finish":0,"committed":true}` + "\n",
	// Version 1, no declared sessions, no keys; then a record with
	// session 3000000000 (zigzag varint), start, finish, committed, no
	// ops; then the end record.
	"mtcb record": MTCBMagic + "\x01\x00\x00" + "\x01\x80\xf8\x82\xad\x16\x00\x00\x01\x00" + "\x00",
}

func TestCodecsRejectHostileSessionNumbers(t *testing.T) {
	for name, doc := range hostileSessionDocs {
		_, err := ReadAuto(strings.NewReader(doc))
		if err == nil || !strings.Contains(err.Error(), "implausible session") {
			t.Errorf("%s: want an implausible-session error, got %v", name, err)
		}
	}
	// The ceiling itself is a legal session number on every codec.
	doc := NDJSONHeader + "\n" + fmt.Sprintf(`{"id":0,"sess":%d,"ops":[],"start":0,"finish":0,"committed":true}`, maxSessions) + "\n"
	if _, err := ReadNDJSON(strings.NewReader(doc)); err != nil {
		t.Errorf("session %d refused: %v", maxSessions, err)
	}
}

// TestStreamReaderErrorIsTerminal: a corrupt record ends the stream for
// good, even when the line after it carries exactly the id the reader
// was waiting for.
func TestStreamReaderErrorIsTerminal(t *testing.T) {
	rec := func(id int) string {
		return fmt.Sprintf(`{"id":%d,"sess":0,"ops":[],"start":0,"finish":0,"committed":true}`, id)
	}
	sr, err := NewStreamReader(strings.NewReader(NDJSONHeader + "\n" + rec(0) + "\n{corrupt\n" + rec(1) + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	_, first := sr.Next()
	if first == nil || first == io.EOF {
		t.Fatalf("corrupt record: got %v", first)
	}
	for i := 0; i < 3; i++ {
		if txn, err := sr.Next(); err != first {
			t.Fatalf("call %d after the error: (%v, %v), want the same error again", i, txn, err)
		}
	}
}

// FuzzScanTxn holds arbitrary single lines to the scanner's contract.
func FuzzScanTxn(f *testing.F) {
	f.Add([]byte(canon))
	f.Add([]byte(`{"id":1,"sess":-1,"ops":null,"start":-5,"finish":9223372036854775807,"committed":false}`))
	f.Add([]byte(`{"id":2,"sess":3,"ops":[{"k":0,"key":"é","v":-1},{"k":255,"key":"","v":0}],"start":0,"finish":0,"committed":true}`))
	f.Add([]byte(`{"sess":0,"id":0,"ops":[],"start":0,"finish":0,"committed":true}`))
	f.Add([]byte(`{"id":0,"sess":0,"ops":[,"start":0,"finish":0,"committed":true}`))
	f.Add([]byte(`{"id":00,"sess":-0,"ops":[{"k":256,"key":"<","v":1e3}],"start":1.0,"finish":0,"committed":true} `))
	f.Fuzz(func(t *testing.T, line []byte) {
		checkAgainstReference(t, line)
	})
}

// canonDoc is a canonical document touching every shape ScanDocument
// knows: an init transaction, an abort, null and empty ops, a nil and an
// empty session list.
const canonDoc = `{"txns":[` +
	`{"id":0,"sess":-1,"ops":[{"k":1,"key":"x","v":0}],"start":0,"finish":0,"committed":true},` +
	`{"id":1,"sess":0,"ops":[{"k":0,"key":"x","v":0},{"k":1,"key":"x","v":-7}],"start":1,"finish":2,"committed":true},` +
	`{"id":2,"sess":2,"ops":null,"start":2,"finish":3,"committed":false},` +
	`{"id":3,"sess":2,"ops":[],"start":4,"finish":5,"committed":true}],` +
	`"sessions":[[1],null,[2,3],[]],"has_init":true}`

// referenceReadJSON is ReadJSON before the document scanner existed.
func referenceReadJSON(data []byte) (*History, error) {
	var h History
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&h); err != nil {
		return nil, fmt.Errorf("history: decode: %w", err)
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return &h, nil
}

// checkDocument holds data to the document scanner's contract: what
// ScanDocument accepts — standing at the start of data or behind a
// prefix — is what encoding/json decodes from exactly those bytes; what
// it declines leaves the arena's chunks as they were; and ReadJSON
// answers as it did when encoding/json was its only decoder.
func checkDocument(t testing.TB, data []byte) (fast bool) {
	t.Helper()
	arena := NewIngestArena()
	arena.commit(len(arena.reserve(3)))
	free := arena.free
	got, end := ScanDocument(data, 0, arena)
	if fast = end >= 0; fast {
		var want History
		if err := json.Unmarshal(data[:end], &want); err != nil {
			t.Fatalf("%q: ScanDocument accepted %d bytes encoding/json rejects: %v", data, end, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: ScanDocument %#v, encoding/json %#v", data, got, want)
		}
		shifted, shiftedEnd := ScanDocument(append([]byte(`{"history":`), data...), len(`{"history":`), NewIngestArena())
		if shiftedEnd != end+len(`{"history":`) || !reflect.DeepEqual(shifted, want) {
			t.Fatalf("%q: behind a prefix ScanDocument ends at %d, want %d", data, shiftedEnd, end+len(`{"history":`))
		}
	} else if len(arena.free) != len(free) || &arena.free[0] != &free[0] {
		t.Fatalf("%q: declined, but the arena's chunk moved", data)
	}
	h, err := ReadJSON(bytes.NewReader(data))
	ref, rerr := referenceReadJSON(data)
	if fmt.Sprint(err) != fmt.Sprint(rerr) || !reflect.DeepEqual(h, ref) {
		t.Fatalf("%q: ReadJSON (%+v, %v), reference (%+v, %v)", data, h, err, ref, rerr)
	}
	return fast
}

// TestScanDocumentNearMisses walks the border of the canonical document.
func TestScanDocumentNearMisses(t *testing.T) {
	re := func(old, new string) string {
		if !strings.Contains(canonDoc, old) {
			t.Fatalf("canonDoc has no %q", old)
		}
		return strings.Replace(canonDoc, old, new, 1)
	}
	cases := []struct {
		name, doc string
		fast      bool
	}{
		{"canonical", canonDoc, true},
		{"no init", re(`"has_init":true`, `"has_init":false`), true},
		{"all null", `{"txns":null,"sessions":null,"has_init":false}`, true},
		{"all empty", `{"txns":[],"sessions":[],"has_init":false}`, true},
		{"sessions of nothing", re(`[[1],null,[2,3],[]]`, `[[],null]`), true},
		{"one session", re(`[[1],null,[2,3],[]]`, `[[1,2,3]]`), true},
		{"more ids than txns", re(`[2,3]`, `[2,3,2,3,2,3,-1,9223372036854775807]`), true},
		{"trailing bytes", canonDoc + `,"level":"SER"}`, true}, // the cursor stops at the document's brace
		{"trailing document", canonDoc + canonDoc, true},

		{"leading space", " " + canonDoc, false},
		{"space after colon", re(`"sessions":`, `"sessions": `), false},
		{"space in sessions", re(`[2,3]`, `[2, 3]`), false},
		{"newline between records", re(`},{"id":1`, "},\n{\"id\":1"), false},
		{"reordered", `{"sessions":null,"txns":null,"has_init":false}`, false},
		{"reordered record", re(`"id":2,"sess":2`, `"sess":2,"id":2`), false},
		{"case-folded", re(`"txns"`, `"Txns"`), false},
		{"unknown field", re(`,"has_init":true`, `,"has_init":true,"more":1`), false},
		{"missing has_init", re(`,"has_init":true`, ``), false},
		{"missing sessions", re(`,"sessions":[[1],null,[2,3],[]]`, ``), false},
		{"has_init null", re(`"has_init":true`, `"has_init":null`), false},
		{"has_init 1", re(`"has_init":true`, `"has_init":1`), false},
		{"id past int64", re(`[2,3]`, `[2,9223372036854775808]`), false},
		{"leading zero", re(`[2,3]`, `[02,3]`), false},
		{"minus zero", re(`[2,3]`, `[-0,3]`), false},
		{"fraction", re(`[2,3]`, `[2.0,3]`), false},
		{"string id", re(`[2,3]`, `["2",3]`), false},
		{"nested list", re(`[2,3]`, `[[2],3]`), false},
		{"dangling comma in a list", re(`[2,3]`, `[2,3,]`), false},
		{"dangling comma in sessions", re(`[]],"has_init"`, `[],],"has_init"`), false},
		{"dangling comma in txns", re(`}],"sessions"`, `},],"sessions"`), false},
		{"empty element", re(`[[1],null,`, `[[1],,`), false},
		{"null record", re(`{"id":2,"sess":2,"ops":null,"start":2,"finish":3,"committed":false}`, `null`), false},
		{"escaped key in a record", re(`"key":"x","v":0}],"start":0`, `"key":"\u0078","v":0}],"start":0`), false},
		{"cut short", canonDoc[:len(canonDoc)-1], false},
		{"array", "[" + canonDoc + "]", false},
		{"empty", "", false},
	}
	for _, c := range cases {
		if fast := checkDocument(t, []byte(c.doc)); fast != c.fast {
			t.Errorf("%s: fast path taken = %v, want %v", c.name, fast, c.fast)
		}
	}
	for cut := 0; cut < len(canonDoc); cut++ {
		if checkDocument(t, []byte(canonDoc[:cut])) {
			t.Errorf("ScanDocument accepted the document cut at byte %d", cut)
		}
	}
}

// TestDocumentMarshalTakesFastPath pins json.Marshal(&History) to the
// document scanner the way TestMarshalTakesFastPath pins the record, so
// a new History field or tag fails here instead of demoting every job
// body and every compact .json file to encoding/json.
func TestDocumentMarshalTakesFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	hs := []*History{{}, {Txns: []Txn{}, Sessions: [][]int{}}, {Sessions: [][]int{nil, {}}}, ndjsonFixture()}
	for _, fx := range Fixtures() {
		hs = append(hs, fx.H)
	}
	for trial := 0; trial < 200; trial++ {
		h := &History{HasInit: rng.Intn(2) == 0, Txns: make([]Txn, rng.Intn(40))}
		for i := range h.Txns {
			h.Txns[i] = randomCanonicalTxn(rng)
		}
		for s := rng.Intn(5); s > 0; s-- {
			var list []int
			for n := rng.Intn(4) - 1; n >= 0; n-- {
				list = append(list[:len(list):len(list)], rng.Int()-rng.Int())
			}
			h.Sessions = append(h.Sessions, list)
		}
		hs = append(hs, h)
	}
	for i, want := range hs {
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !checkDocument(t, data) {
			t.Fatalf("history %d: ScanDocument declined json.Marshal's own output %s", i, data)
		}
		got, end := ScanDocument(data, 0, NewIngestArena())
		if again, err := json.Marshal(&got); err != nil || end != len(data) || string(again) != string(data) {
			t.Fatalf("history %d: %s decodes to a history that marshals as %s (%v)", i, data, again, err)
		}
	}
}

// FuzzScanDocument holds arbitrary documents to the scanner's contract.
func FuzzScanDocument(f *testing.F) {
	f.Add([]byte(canonDoc))
	f.Add([]byte(`{"txns":null,"sessions":[[],null,[0,-1,9223372036854775807]],"has_init":false}`))
	f.Add([]byte(`{"txns":[],"sessions":[],"has_init":true} `))
	f.Add([]byte(`{"sessions":null,"txns":[{"id":0}],"has_init":false}`))
	f.Add([]byte(`{"txns":[{"id":0,"sess":0,"ops":[{"k":0,"key":"é","v":1}],"start":0,"finish":0,"committed":true},],"sessions":[[0]],"has_init":false}`))
	f.Add([]byte(`{"txns":[{"id":00,"sess":0,"ops":null,"start":0,"finish":0,"committed":true}],"sessions":[[0,]],"has_init":falsE}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDocument(t, data)
	})
}
