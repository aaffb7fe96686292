// codec_bench_test.go benchmarks history decoding across wire codecs on
// the same 100k-transaction corpus: NDJSON in the canonical spelling its
// writer emits (decoded in place by the record scanner), the same
// records re-spelled so every line takes the encoding/json route the
// scanner falls back to, the same history as a POST /v1/jobs body in
// both spellings, MTCB straight to a columnar index, and MTCB frames
// through a session arena. CI gates the same-run ratio of each
// canonical/fallback pair (see the bench job): the NDJSON scanner must
// stay at least 5x faster with at least 10x fewer allocations than its
// own fallback and the job door at least 3x faster than json.Unmarshal,
// so a writer/scanner drift that demotes every line or every job fails
// the build. MTCB's standing advantage is wire size and the
// decode-to-Index path, not a ratio over NDJSON.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"mtc/internal/api"
	"mtc/internal/history"
)

const codecBenchTxns = 100_000

// codecCorpus builds one deterministic 100k-txn clean RMW history and
// its NDJSON and MTCB encodings, shared across benchmark iterations.
var codecCorpus = sync.OnceValue(func() struct {
	h      *history.History
	ndjson []byte
	mtcb   []byte
} {
	const (
		keys     = 512
		sessions = 16
	)
	keyNames := make([]history.Key, keys)
	for i := range keyNames {
		keyNames[i] = history.Key(fmt.Sprintf("acct%04d", i))
	}
	b := history.NewBuilder(keyNames...)
	latest := make([]history.Value, keys)
	next := history.Value(1)
	for j := 0; j < codecBenchTxns; j++ {
		k := j % keys
		b.Txn(j%sessions,
			history.R(keyNames[k], latest[k]),
			history.W(keyNames[k], next),
		)
		latest[k] = next
		next++
	}
	h := b.Build()
	var nb, mb bytes.Buffer
	if err := history.WriteNDJSON(&nb, h); err != nil {
		panic(err)
	}
	if err := history.WriteMTCB(&mb, h); err != nil {
		panic(err)
	}
	return struct {
		h      *history.History
		ndjson []byte
		mtcb   []byte
	}{h, nb.Bytes(), mb.Bytes()}
})

// benchDecodeNDJSON decodes doc into a History per iteration, after
// checking once that it is a spelling of the corpus.
func benchDecodeNDJSON(b *testing.B, doc []byte) {
	c := codecCorpus()
	if h, err := history.ReadNDJSON(bytes.NewReader(doc)); err != nil || !reflect.DeepEqual(h, c.h) {
		b.Fatalf("document does not decode to the corpus: %v", err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := history.ReadNDJSON(bytes.NewReader(doc))
		if err != nil {
			b.Fatal(err)
		}
		if len(h.Txns) != len(c.h.Txns) {
			b.Fatalf("decoded %d txns, want %d", len(h.Txns), len(c.h.Txns))
		}
	}
}

// BenchmarkDecode100kNDJSON is the text codec as its writer spells it:
// every line is a canonical record the scanner decodes in place.
func BenchmarkDecode100kNDJSON(b *testing.B) { benchDecodeNDJSON(b, codecCorpus().ndjson) }

// BenchmarkDecode100kNDJSONFallback is the same corpus with "sess"
// written before "id" on every line — equally valid, not canonical — so
// each record takes the encoding/json route: one reflect-driven decode
// per transaction, the cost of every line before the scanner existed.
func BenchmarkDecode100kNDJSONFallback(b *testing.B) {
	lines := bytes.SplitAfter(codecCorpus().ndjson, []byte("\n"))
	doc := append([]byte(nil), lines[0]...) // the header line
	for _, l := range lines[1:] {
		if len(l) == 0 {
			continue
		}
		sess, ops := bytes.Index(l, []byte(`,"sess":`)), bytes.Index(l, []byte(`,"ops":`))
		doc = append(doc, '{')
		doc = append(doc, l[sess+1:ops]...)
		doc = append(doc, ',')
		doc = append(doc, l[1:sess]...)
		doc = append(doc, l[ops:]...)
	}
	benchDecodeNDJSON(b, doc)
}

// benchDecodeJob decodes body through the POST /v1/jobs door per
// iteration, after checking once that its history is the corpus.
func benchDecodeJob(b *testing.B, body []byte) {
	c := codecCorpus()
	if req, err := api.DecodeJobRequest(body); err != nil || !reflect.DeepEqual(req.History, c.h) {
		b.Fatalf("body does not decode to the corpus: %v", err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := api.DecodeJobRequest(body)
		if err != nil {
			b.Fatal(err)
		}
		if len(req.History.Txns) != len(c.h.Txns) {
			b.Fatalf("decoded %d txns, want %d", len(req.History.Txns), len(c.h.Txns))
		}
	}
}

// codecJobBody is the corpus as json.Marshal — and so pkg/client —
// spells a job: the body the door scans in one pass.
func codecJobBody(b *testing.B) []byte {
	body, err := json.Marshal(&api.JobRequest{Checker: "mtc", Level: "SER", History: codecCorpus().h})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkDecode100kJob is a job body as every writer in the repository
// spells it.
func BenchmarkDecode100kJob(b *testing.B) { benchDecodeJob(b, codecJobBody(b)) }

// BenchmarkDecode100kJobFallback is the same body with "sessions"
// written before "txns" — equally valid, not canonical — so the whole
// body takes json.Unmarshal: the cost of every job before the door.
func BenchmarkDecode100kJobFallback(b *testing.B) {
	body := codecJobBody(b)
	txns, sessions := bytes.Index(body, []byte(`"txns":`)), bytes.LastIndex(body, []byte(`,"sessions":`))
	hasInit := bytes.LastIndex(body, []byte(`,"has_init":`))
	doc := append([]byte(nil), body[:txns]...)
	doc = append(doc, body[sessions+1:hasInit]...)
	doc = append(doc, ',')
	doc = append(doc, body[txns:sessions]...)
	doc = append(doc, body[hasInit:]...)
	benchDecodeJob(b, doc)
}

// BenchmarkDecode100kMTCB decodes the binary twin straight into a
// columnar index — the path fabric workers take on dispatch.
func BenchmarkDecode100kMTCB(b *testing.B) {
	c := codecCorpus()
	b.SetBytes(int64(len(c.mtcb)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := history.ReadMTCBIndexed(bytes.NewReader(c.mtcb))
		if err != nil {
			b.Fatal(err)
		}
		if h := ix.History(); len(h.Txns) != len(c.h.Txns) {
			b.Fatalf("decoded %d txns, want %d", len(h.Txns), len(c.h.Txns))
		}
	}
}

// BenchmarkSessionIngestArena replays the corpus as MTCB batch frames
// through one arena-backed frame reader per frame, the way
// POST /v1/sessions/{id}/batch ingests — op storage and key strings are
// shared across every frame of a session.
func BenchmarkSessionIngestArena(b *testing.B) {
	c := codecCorpus()
	const frameTxns = 1 << 10
	// Pre-slice the corpus into frames once.
	var frames [][]byte
	for lo := 0; lo < len(c.h.Txns); lo += frameTxns {
		hi := lo + frameTxns
		if hi > len(c.h.Txns) {
			hi = len(c.h.Txns)
		}
		var buf bytes.Buffer
		bw, err := history.NewBinaryWriter(&buf, 0)
		if err != nil {
			b.Fatal(err)
		}
		for i, t := range c.h.Txns[lo:hi] {
			t.ID = i
			if err := bw.WriteTxn(t); err != nil {
				b.Fatal(err)
			}
		}
		if err := bw.Close(); err != nil {
			b.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
	}
	b.SetBytes(int64(len(c.mtcb)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena := history.NewIngestArena()
		total := 0
		for _, frame := range frames {
			fr, err := history.NewBinaryFrameReader(bytes.NewReader(frame), arena)
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, err := fr.Next(); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
				total++
			}
		}
		if total != len(c.h.Txns) {
			b.Fatalf("ingested %d txns, want %d", total, len(c.h.Txns))
		}
	}
}
