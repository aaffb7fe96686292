package history

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// ndjsonFixture builds a small history exercising every record shape:
// init transaction, multiple sessions, aborted transactions, timed ones.
func ndjsonFixture() *History {
	b := NewBuilder("x", "y")
	b.Txn(0, R("x", 0), W("x", 1))
	b.TimedTxn(1, 10, 20, R("y", 0), W("y", 2))
	b.AbortedTxn(0, R("x", 1), W("x", 3))
	b.Txn(1, R("x", 1), R("y", 2))
	return b.Build()
}

func TestNDJSONRoundTrip(t *testing.T) {
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
		if err := WriteNDJSON(&buf, h); err != nil {
			t.Fatalf("withInit=%v: write: %v", withInit, err)
		}
		got, err := ReadNDJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("withInit=%v: read: %v", withInit, err)
		}
		if !reflect.DeepEqual(got, h) {
			t.Fatalf("withInit=%v: round trip mismatch:\n got %+v\nwant %+v", withInit, got, h)
		}
	}
}

// TestNDJSONStreamReaderIncremental: Next yields the transactions one at
// a time in ID order, the init record first with session -1, then
// io.EOF.
func TestNDJSONStreamReaderIncremental(t *testing.T) {
	h := ndjsonFixture()
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, h); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h.Txns {
		txn, err := sr.Next()
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		if txn.ID != i {
			t.Fatalf("txn %d: got ID %d", i, txn.ID)
		}
		if i == 0 && txn.Session != -1 {
			t.Fatalf("init record not recognised: session %d", txn.Session)
		}
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

func TestNDJSONRejectsTruncatedFinalLine(t *testing.T) {
	h := ndjsonFixture()
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, h); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3] // chop the record mid-JSON, losing '\n'
	if _, err := ReadNDJSON(bytes.NewReader(cut)); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated stream accepted: %v", err)
	}
}

func TestNDJSONRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"no header":       "{\"id\":0}\n",
		"wrong format":    "{\"format\":\"other\"}\n",
		"bad version":     "{\"format\":\"mtc-ndjson\",\"version\":9}\n",
		"non-json record": NDJSONHeader + "\nnot json\n",
		"unknown field":   NDJSONHeader + "\n{\"id\":0,\"sess\":0,\"bogus\":1,\"committed\":true,\"ops\":[],\"start\":0,\"finish\":0}\n",
		"id out of order": NDJSONHeader + "\n{\"id\":5,\"sess\":0,\"ops\":[],\"start\":0,\"finish\":0,\"committed\":true}\n",
		"late init":       NDJSONHeader + "\n{\"id\":0,\"sess\":0,\"ops\":[],\"start\":0,\"finish\":0,\"committed\":true}\n{\"id\":1,\"sess\":-1,\"ops\":[],\"start\":0,\"finish\":0,\"committed\":true}\n",
		"trailing data":   NDJSONHeader + "\n{\"id\":0,\"sess\":0,\"ops\":[],\"start\":0,\"finish\":0,\"committed\":true} {\"x\":1}\n",
	}
	for name, doc := range cases {
		if _, err := ReadNDJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadAutoSniffsAllFormats: the same fixture saved through every
// codec (and gzip wrapping) loads back identically via content sniffing.
func TestReadAutoSniffsAllFormats(t *testing.T) {
	h := ndjsonFixture()
	dir := t.TempDir()
	for _, name := range []string{
		"h.json", "h.json.gz", "h.ndjson", "h.ndjson.gz",
	} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, h); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if !reflect.DeepEqual(got, h) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

// TestNDJSONGzipTransparent: StreamReader sniffs gzip on its own, so a
// compressed capture streams without the caller wrapping it.
func TestNDJSONGzipTransparent(t *testing.T) {
	h := ndjsonFixture()
	var plain bytes.Buffer
	if err := WriteNDJSON(&plain, h); err != nil {
		t.Fatal(err)
	}
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	if _, err := zw.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(&zipped)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, err := sr.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != len(h.Txns) {
		t.Fatalf("streamed %d txns, want %d", n, len(h.Txns))
	}
}

// TestNDJSONRandomizedRoundTrip hammers the codec with the adversarial
// random histories the index equivalence suite uses.
func TestNDJSONRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		h := randomHistory(rng)
		var buf bytes.Buffer
		if err := WriteNDJSON(&buf, h); err != nil {
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

// TestSaveFileNDJSONIsLineOriented pins the on-disk shape: header line
// first, then exactly one JSON object per transaction.
func TestSaveFileNDJSONIsLineOriented(t *testing.T) {
	h := ndjsonFixture()
	path := filepath.Join(t.TempDir(), "h.ndjson")
	if err := SaveFile(path, h); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != len(h.Txns)+1 {
		t.Fatalf("%d lines, want %d", len(lines), len(h.Txns)+1)
	}
	if !strings.HasPrefix(lines[0], `{"format":"mtc-ndjson"`) {
		t.Fatalf("header line %q", lines[0])
	}
}

// TestStreamReaderKeyIDs is the contract CheckStreamCtx relies on: one id
// per op for a scanned line, nil for a line encoding/json decodes, equal
// ids for equal keys within a generation, and a new generation from the
// line that brings the key past ingestArenaMaxKeys.
func TestStreamReaderKeyIDs(t *testing.T) {
	var doc strings.Builder
	doc.WriteString(NDJSONHeader + "\n")
	line := func(id int, keys ...string) {
		txn := Txn{ID: id, Session: 0, Committed: true}
		for _, k := range keys {
			txn.Ops = append(txn.Ops, Op{Kind: OpWrite, Key: Key(k), Value: Value(id)})
		}
		b, _ := json.Marshal(&txn)
		doc.Write(append(b, '\n'))
	}
	line(0, "a", "b", "a")
	doc.WriteString(`{"id":1, "sess":0,"ops":[{"k":1,"key":"b","v":1}],"start":0,"finish":0,"committed":true}` + "\n")
	line(2, "b", "", "c")
	// Four keys so far: fill the table to one short of its ceiling, then
	// cross it mid-line.
	const full = ingestArenaMaxKeys - 2
	for i := 3; i < full; i++ {
		line(i, fmt.Sprintf("k%d", i))
	}
	line(full, "last", "restart")
	line(full+1, "a", "restart", "a")

	sr, err := NewStreamReader(strings.NewReader(doc.String()))
	if err != nil {
		t.Fatal(err)
	}
	next := func() (Txn, []KeyID, uint64) {
		txn, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		ids, gen := sr.KeyIDs()
		return txn, slices.Clone(ids), gen
	}
	txn, first, gen0 := next()
	if len(first) != len(txn.Ops) || first[0] != first[2] || first[0] == first[1] {
		t.Fatalf("T0 ops %v: ids %v, want one per op, equal for equal keys", txn.Ops, first)
	}
	if _, ids, _ := next(); ids != nil {
		t.Fatalf("T1 took encoding/json, yet has ids %v", ids)
	}
	if _, ids, gen := next(); len(ids) != 3 || ids[0] != first[1] || ids[1] == ids[2] || gen != gen0 {
		t.Fatalf("T2: ids %v gen %d, want b's id %d first and gen %d", ids, gen, first[1], gen0)
	}
	for i := 3; i < full; i++ {
		if _, ids, gen := next(); len(ids) != 1 || gen != gen0 {
			t.Fatalf("T%d: ids %v gen %d before the table is full", i, ids, gen)
		}
	}
	if _, ids, gen := next(); len(ids) != 2 || gen == gen0 {
		t.Fatalf("the line crossing the restart: ids %v gen %d, want two and a new generation", ids, gen)
	}
	txn, ids, gen := next()
	if len(ids) != 3 || ids[0] != ids[2] || ids[0] == ids[1] || gen == gen0 {
		t.Fatalf("T%d after the restart: ids %v gen %d", txn.ID, ids, gen)
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}
