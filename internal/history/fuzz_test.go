package history

import (
	"bytes"
	"compress/gzip"
	"io"
	"reflect"
	"testing"
)

// fuzzSeeds returns serialized fixtures in every codec the sniffer
// recognizes, plus truncated and corrupted variants: the shapes the
// mutator grows the corpus from.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	h := ndjsonFixture()
	var nd, js, mb bytes.Buffer
	if err := WriteNDJSON(&nd, h); err != nil {
		tb.Fatal(err)
	}
	if err := WriteJSON(&js, h); err != nil {
		tb.Fatal(err)
	}
	if err := WriteMTCB(&mb, h); err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{nd.Bytes(), js.Bytes(), mb.Bytes()}
	// Truncations at awkward offsets: mid-header, mid-record, mid-line.
	for _, cut := range []int{1, 7, nd.Len() / 2, nd.Len() - 3} {
		if cut > 0 && cut < nd.Len() {
			seeds = append(seeds, nd.Bytes()[:cut])
		}
	}
	seeds = append(seeds,
		[]byte(""),
		[]byte("{\"mtc\":"),
		[]byte("garbage that is neither json nor a history\n"),
		[]byte("{\"mtc\":\"history\",\"version\":1,\"sessions\":-5}\n"),
		// Records the readers frame but every consumer refuses
		// (CheckTxn): an op neither a read nor a write, a finish before
		// its start.
		[]byte(NDJSONHeader+"\n"+`{"id":0,"sess":0,"ops":[{"k":2,"key":"x","v":1}],"start":0,"finish":0,"committed":true}`+"\n"),
		[]byte(NDJSONHeader+"\n"+`{"id":0,"sess":0,"ops":[],"start":10,"finish":5,"committed":true}`+"\n"),
		// A first record below the init transaction's -1, which the
		// NDJSON reader once took for ⊥T (checkRecord refuses it).
		[]byte(NDJSONHeader+"\n"+`{"id":0,"sess":-5,"ops":[],"start":0,"finish":0,"committed":true}`+"\n"),
	)
	for _, doc := range hostileSessionDocs {
		seeds = append(seeds, []byte(doc))
	}
	return seeds
}

// FuzzStreamReader drives the NDJSON incremental decoder with arbitrary
// bytes: any input must either stream a structurally valid history or
// return an error — never panic, never hand back a Txn that breaks the
// builder's invariants — and, transaction for transaction and error
// byte for error byte, must read exactly as it does through the
// reference reader that knows only encoding/json; every line is held to
// the scanner's contract on its own as well.
func FuzzStreamReader(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, line := range bytes.Split(data, []byte("\n")) {
			checkAgainstReference(t, bytes.TrimRight(line, "\r"))
		}
		got, ref := runStream(data), referenceStream(data)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("reader diverged from the encoding/json reference:\n got %+v\nwant %+v", got, ref)
		}
		if got.Err != "" {
			return // malformed input surfaced as an error: fine
		}
		// The stream decoded fully; the assembled history must be
		// structurally well-formed.
		h, err := ReadNDJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("ReadNDJSON accepted a structurally invalid history: %v", err)
		}
	})
}

// mtcbFuzzSeeds returns MTCB-shaped seeds: valid documents (plain and
// gzip-wrapped), truncations at awkward offsets (mid-header, mid-key
// table, mid-varint, missing end record), a corrupt-varint tail, and a
// duplicated key table.
func mtcbFuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var mb bytes.Buffer
	if err := WriteMTCB(&mb, ndjsonFixture()); err != nil {
		tb.Fatal(err)
	}
	doc := mb.Bytes()
	seeds := [][]byte{doc}
	for _, cut := range []int{1, 5, 9, len(doc) / 2, len(doc) - 1} {
		if cut > 0 && cut < len(doc) {
			seeds = append(seeds, doc[:cut])
		}
	}
	var zb bytes.Buffer
	zw := gzip.NewWriter(&zb)
	if _, err := zw.Write(doc); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds,
		zb.Bytes(),
		[]byte(MTCBMagic),
		[]byte(MTCBMagic+"\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f"), // corrupt varint header
		[]byte(MTCBMagic+"\x01\x00\x02\x01x\x01x\x00"),                   // duplicate key-table entries
		[]byte(MTCBMagic+"\x02\x00\x00\x00"),                             // future version
	)
	return seeds
}

// FuzzBinaryReader drives the MTCB decoder with arbitrary bytes: any
// input must either decode to a structurally valid history — with the
// indexed fast path agreeing with the plain one — or return an error;
// never panic, never silently accept a truncated document.
func FuzzBinaryReader(f *testing.F) {
	for _, s := range mtcbFuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := NewBinaryReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for {
			if _, err := sr.Next(); err != nil {
				if err != io.EOF {
					return // malformed record surfaced as an error: fine
				}
				break
			}
		}
		// The stream decoded fully; the assembled history must be
		// structurally well-formed, and the zero-copy indexed decode
		// must accept it too and agree on the transactions.
		h, err := ReadMTCB(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("ReadMTCB accepted a structurally invalid history: %v", err)
		}
		ix, err := ReadMTCBIndexed(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("plain decode accepted but indexed decode rejected: %v", err)
		}
		if !reflect.DeepEqual(ix.History(), h) {
			t.Fatal("indexed decode diverged from plain decode")
		}
		// Frame decoding through an arena must agree as well.
		fr, err := NewBinaryFrameReader(bytes.NewReader(data), NewIngestArena())
		if err != nil {
			t.Fatalf("frame reader rejected what ReadMTCB accepted: %v", err)
		}
		for i := 0; ; i++ {
			tx, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("frame decode error after plain decode succeeded: %v", err)
			}
			if !reflect.DeepEqual(tx, h.Txns[i]) {
				t.Fatalf("frame txn %d diverged from plain decode", i)
			}
		}
	})
}

// FuzzReadAuto drives the format sniffer plus all three decoders:
// arbitrary bytes must yield either an error or a Validate-clean
// history, regardless of which codec the sniffer picks.
func FuzzReadAuto(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ReadAuto(bytes.NewReader(data))
		if err != nil {
			return
		}
		if h == nil {
			t.Fatal("ReadAuto returned nil history with nil error")
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("ReadAuto accepted a structurally invalid history: %v", err)
		}
	})
}
