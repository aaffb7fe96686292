package history

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// codecFixture builds a small history exercising sessions, aborts,
// timestamps and the init transaction.
func codecFixture() *History {
	b := NewBuilder("x", "y")
	b.TimedTxn(0, 10, 20, R("x", 0), W("x", 1))
	b.TimedAbortedTxn(1, 15, 25, R("y", 0), W("y", 7))
	b.TimedTxn(1, 30, 40, R("y", 0), W("y", 2))
	b.TimedTxn(0, 50, 60, R("x", 1), R("y", 2))
	return b.Build()
}

// TestSaveLoadRoundTrip round-trips every extension combination SaveFile
// understands — JSON, NDJSON, MTCB, and their gzipped forms —
// through LoadFile's content sniffing, and through LoadFileIndexed to
// the index NewIndex builds of the loaded history, column for column.
func TestSaveLoadRoundTrip(t *testing.T) {
	h := codecFixture()
	dir := t.TempDir()
	for i, name := range []string{
		"h.json", "h.json.gz", "h",
		"h.mtcb", "h.mtcb.gz", "h.ndjson", "h.ndjson.gz",
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
			t.Fatalf("%s: round trip diverged:\nsaved:  %+v\nloaded: %+v", name, h, got)
		}
		ix, err := LoadFileIndexed(path)
		if err != nil {
			t.Fatalf("%s: load indexed: %v", name, err)
		}
		if !reflect.DeepEqual(ix.History(), h) {
			t.Fatalf("%s: indexed round trip diverged:\nsaved:  %+v\nloaded: %+v", name, h, ix.History())
		}
		compareIndexes(t, i, ix, NewIndex(got))
	}
}

// TestSaveFileRejectsUnroundtrippable: extensions the save/sniff pair
// cannot honour fail loudly instead of silently writing another format —
// unknown suffixes (.txt among them: it is no codec), doubled .gz; and
// a key with whitespace round-trips through every codec.
func TestSaveFileRejectsUnroundtrippable(t *testing.T) {
	h := codecFixture()
	dir := t.TempDir()
	for _, name := range []string{"h.bin", "h.dat.gz", "h.gz.gz", "h.mtcbx", "h.txt", "h.txt.gz"} {
		if err := SaveFile(filepath.Join(dir, name), h); err == nil {
			t.Errorf("%s: ambiguous extension accepted", name)
		}
	}
	// Bare .gz: the inner name has no extension, so it is gzipped JSON.
	if err := SaveFile(filepath.Join(dir, "h.gz"), h); err != nil {
		t.Fatalf("h.gz: %v", err)
	}
	if got, err := LoadFile(filepath.Join(dir, "h.gz")); err != nil || !reflect.DeepEqual(got, h) {
		t.Fatalf("h.gz round trip: %v", err)
	}
	b := NewBuilder()
	b.Txn(0, W("key with spaces", 1))
	tricky := b.Build()
	for _, name := range []string{"tricky.json", "tricky.mtcb", "tricky.ndjson"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, tricky); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		if got, err := LoadFile(path); err != nil || !reflect.DeepEqual(got, tricky) {
			t.Fatalf("%s: round trip: %v", name, err)
		}
	}
}

// TestLoadSniffsContentNotExtension: an NDJSON capture hiding behind a
// ".json" name, and gzipped JSON behind a plain one, still load — the
// codec trusts the bytes, not the extension.
func TestLoadSniffsContentNotExtension(t *testing.T) {
	h := codecFixture()
	dir := t.TempDir()

	// NDJSON bytes under a .json name: both open with '{', and the
	// header line, not the name, tells them apart.
	var nd bytes.Buffer
	if err := WriteNDJSON(&nd, h); err != nil {
		t.Fatal(err)
	}
	mislabeled := filepath.Join(dir, "actually-ndjson.json")
	writeFile(t, mislabeled, nd.Bytes())
	if got, err := LoadFile(mislabeled); err != nil || !reflect.DeepEqual(got, h) {
		t.Fatalf("ndjson-as-.json: %v", err)
	}

	// Gzipped JSON with no .gz extension.
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if err := WriteJSON(zw, h); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	hidden := filepath.Join(dir, "compressed-but-plain-name.json")
	writeFile(t, hidden, gz.Bytes())
	if got, err := LoadFile(hidden); err != nil || !reflect.DeepEqual(got, h) {
		t.Fatalf("gzip-without-.gz: %v", err)
	}

	// JSON with leading whitespace still sniffs as JSON.
	var ws bytes.Buffer
	ws.WriteString("\n\t  ")
	if err := WriteJSON(&ws, h); err != nil {
		t.Fatal(err)
	}
	padded := filepath.Join(dir, "padded")
	writeFile(t, padded, ws.Bytes())
	if got, err := LoadFile(padded); err != nil || !reflect.DeepEqual(got, h) {
		t.Fatalf("whitespace-padded JSON: %v", err)
	}
}

// TestReadAutoRejectsGarbage: corrupt gzip and empty payloads fail with
// errors instead of mis-parsing, and a payload no codec claims — blank,
// a lone comment, the retired text format's lines — is refused by every
// sniffing door as an unrecognized encoding, never read as an empty
// history.
func TestReadAutoRejectsGarbage(t *testing.T) {
	if _, err := ReadAuto(bytes.NewReader([]byte{0x1f, 0x8b, 0xff, 0xff})); err == nil {
		t.Fatal("corrupt gzip accepted")
	}
	if _, err := ReadAuto(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty payload accepted")
	}
	doors := map[string]func(io.Reader) error{
		"ReadAuto":            func(r io.Reader) error { _, err := ReadAuto(r); return err },
		"ReadAutoIndexed":     func(r io.Reader) error { _, err := ReadAutoIndexed(r); return err },
		"NewAutoStreamReader": func(r io.Reader) error { _, err := NewAutoStreamReader(r); return err },
	}
	for name, payload := range map[string]string{
		"whitespace only": "\n \t\r\n",
		"comment only":    "# note\n",
		"old text lines":  "txn 0 s0 10 20 C\nr x 0\nw x 1\n",
	} {
		for door, read := range doors {
			if err := read(strings.NewReader(payload)); err == nil || !strings.Contains(err.Error(), "unrecognized encoding") {
				t.Errorf("%s: %s = %v, want an unrecognized encoding", name, door, err)
			}
		}
	}
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
