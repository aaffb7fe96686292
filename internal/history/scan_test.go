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
	res.HasInit = sr.HasInit()
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
		case t.Session > maxSessions:
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

// hostileSessionDocs are inputs whose session numbers used to make the
// text codecs allocate until the process died.
var hostileSessionDocs = map[string]string{
	"ndjson record":          NDJSONHeader + "\n" + `{"id":0,"sess":3000000000,"ops":[],"start":0,"finish":0,"committed":true}` + "\n",
	"ndjson record, spelled": NDJSONHeader + "\n" + `{"sess":3000000000,"id":0,"ops":[],"start":0,"finish":0,"committed":true}` + "\n",
	"ndjson header":          `{"format":"mtc-ndjson","version":1,"sessions":1000000000000}` + "\n",
	"ndjson header, negative": `{"format":"mtc-ndjson","version":1,"sessions":-5}` + "\n" +
		`{"id":0,"sess":0,"ops":[],"start":0,"finish":0,"committed":true}` + "\n",
	"text": "txn 0 s3000000000 0 0 C\n",
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
	if sr.NumTxns() != 1 {
		t.Fatalf("NumTxns = %d after resynchronising, want 1", sr.NumTxns())
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
