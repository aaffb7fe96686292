package history

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// ownershipHistory is a capture built to make a reader reuse memory if
// it ever would: over 65 536 distinct keys (past the NDJSON intern
// cache's restart), operations across many 4096-op chunks, a
// transaction larger than a chunk, and aborted attempts in between.
func ownershipHistory() *History {
	b := NewBuilder("hot")
	hot := Value(0)
	for i := 0; i < 24_000; i++ {
		ops := []Op{R("hot", hot), W("hot", Value(i+1))}
		for j := 0; j < 3; j++ {
			ops = append(ops, W(Key(fmt.Sprintf("fresh/%06d/%d", i, j)), Value(i+1)))
		}
		if i%7 == 3 {
			b.AbortedTxn(i%4, W("hot", Value(-i-1)))
		}
		b.Txn(i%4, ops...)
		hot = Value(i + 1)
	}
	big := make([]Op, 5000)
	for j := range big {
		big[j] = W(Key(fmt.Sprintf("big/%d", j)), 1)
	}
	b.Txn(1, big...)
	return b.Build()
}

// TestStreamTxnsOutliveLaterCalls pins the rule core.CheckStreamCtx's
// read-ahead relies on: a Txn a streaming reader returns — its Ops and
// their keys — stays valid after later Next calls. Every transaction is
// collected before any is looked at, then compared with a one-shot read
// of the same bytes and with the history that was written (the one-shot
// NDJSON read drains the same reader, so it alone would share a fault).
func TestStreamTxnsOutliveLaterCalls(t *testing.T) {
	h := ownershipHistory()
	gzipped := func(write func(io.Writer, *History) error) func(io.Writer, *History) error {
		return func(w io.Writer, h *History) error {
			zw := gzip.NewWriter(w)
			if err := write(zw, h); err != nil {
				return err
			}
			return zw.Close()
		}
	}
	for _, tc := range []struct {
		name  string
		write func(io.Writer, *History) error
		open  func(io.Reader) (TxnStream, error)
	}{
		{"StreamReader", WriteNDJSON, func(r io.Reader) (TxnStream, error) { return NewStreamReader(r) }},
		{"BinaryReader", WriteMTCB, func(r io.Reader) (TxnStream, error) { return NewBinaryReader(r) }},
		{"StreamReader gzipped", gzipped(WriteNDJSON), NewAutoStreamReader},
		{"BinaryReader gzipped", gzipped(WriteMTCB), NewAutoStreamReader},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.write(&buf, h); err != nil {
				t.Fatal(err)
			}
			ts, err := tc.open(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var got []Txn
			for {
				txn, err := ts.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, txn)
			}
			want, err := ReadAuto(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want.Txns) {
				t.Fatalf("streamed %d txns, one-shot read %d", len(got), len(want.Txns))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want.Txns[i]) || !reflect.DeepEqual(got[i], h.Txns[i]) {
					t.Fatalf("txn %d changed after later Next calls:\nkept:     %+v\none-shot: %+v\nwritten:  %+v", i, got[i], want.Txns[i], h.Txns[i])
				}
			}
		})
	}
}
