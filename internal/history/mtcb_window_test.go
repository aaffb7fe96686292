package history

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// windowDocs are MTCB documents whose units meet the edge of
// BinaryReader's window: 600 transactions over 40 keys, whose records
// straddle every 4 KiB edge, and an init transaction over 5 000 keys,
// whose key table and record are each longer than the whole initial
// window. Each is encoded by WriteMTCB (every key in the header table)
// and by a BinaryWriter (every key defined inline, one record each).
func windowDocs(t *testing.T) map[string][]byte {
	t.Helper()
	keys := make([]Key, 40)
	for i := range keys {
		keys[i] = Key(fmt.Sprintf("key-%02d", i))
	}
	straddle := SerialHistory(600, keys...)
	wideKeys := make([]Key, 5000)
	for i := range wideKeys {
		wideKeys[i] = Key(fmt.Sprintf("w%04d", i))
	}
	b := NewBuilder(wideKeys...)
	b.Txn(0, R("w0042", 0), W("w0042", 1))
	b.Txn(1, R("w4999", 0), W("w4999", 2), R("w0042", 1))
	wide := b.Build()

	docs := map[string][]byte{}
	for name, h := range map[string]*History{"straddle": straddle, "wide init": wide} {
		docs[name+"/table"] = mtcbEncode(t, h)
		var inline bytes.Buffer
		bw, err := NewBinaryWriter(&inline, len(h.Sessions))
		if err != nil {
			t.Fatal(err)
		}
		for i, txn := range h.Txns {
			if h.HasInit && i == 0 {
				txn.Session = -1
			}
			if err := bw.WriteTxn(txn); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		docs[name+"/inline"] = inline.Bytes()
	}
	for name, doc := range docs {
		if len(doc) <= 2*mtcbWindow {
			t.Fatalf("%s: %d bytes, want more than two windows", name, len(doc))
		}
	}
	return docs
}

// decodeStream drains a BinaryReader over r, as the streaming door and
// the session frames decode.
func decodeStream(r io.Reader) (*History, error) {
	sr, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	return drain(sr)
}

// TestMTCBWindowEdges: the one decoder gives one answer whether it
// reads the whole document (ReadMTCB, ReadMTCBIndexed) or a window onto
// it (NewBinaryReader), and whatever sizes of read the source returns.
// Cut anywhere, the document fails in both with the same words.
func TestMTCBWindowEdges(t *testing.T) {
	sources := map[string]func(io.Reader) io.Reader{
		"whole reads":   func(r io.Reader) io.Reader { return r },
		"half reads":    iotest.HalfReader,
		"EOF with data": iotest.DataErrReader,
		"no Len":        func(r io.Reader) io.Reader { return struct{ io.Reader }{r} },
	}
	for name, doc := range windowDocs(t) {
		if strings.HasPrefix(name, "straddle") {
			// One-byte reads retry a unit per byte: quadratic in a
			// unit's length, so only over the short records.
			sources["one byte"] = iotest.OneByteReader
		} else {
			delete(sources, "one byte")
		}
		want, err := ReadMTCB(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: ReadMTCB: %v", name, err)
		}
		ix, err := ReadMTCBIndexed(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: ReadMTCBIndexed: %v", name, err)
		}
		if !reflect.DeepEqual(ix.History(), want) {
			t.Fatalf("%s: ReadMTCBIndexed's history differs from ReadMTCB's", name)
		}
		compareIndexes(t, 0, ix, NewIndex(want))
		for sname, source := range sources {
			got, err := decodeStream(source(bytes.NewReader(doc)))
			if err != nil {
				t.Fatalf("%s, %s: BinaryReader: %v", name, sname, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %s: BinaryReader's history differs from ReadMTCB's", name, sname)
			}
			one, err := ReadMTCB(source(bytes.NewReader(doc)))
			if err != nil || !reflect.DeepEqual(one, want) {
				t.Fatalf("%s, %s: ReadMTCB differs from ReadMTCB over a bytes.Reader (%v)", name, sname, err)
			}
		}
		for cut := 0; cut < len(doc); cut += 1 + cut/8 {
			_, werr := ReadMTCB(bytes.NewReader(doc[:cut]))
			_, serr := decodeStream(iotest.HalfReader(bytes.NewReader(doc[:cut])))
			if werr == nil || serr == nil || werr.Error() != serr.Error() {
				t.Fatalf("%s cut at %d/%d: ReadMTCB says %v, BinaryReader says %v", name, cut, len(doc), werr, serr)
			}
		}
	}
}
