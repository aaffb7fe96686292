// codec_differential_test.go property-tests wire-codec equivalence: a
// history round-tripped through JSON, NDJSON, or MTCB (plain or
// gzipped) and re-read via the content-sniffing ReadAuto must produce
// byte-for-byte the same verdict at every level — same OK bit, anomaly
// set, and first counterexample. The corpus mixes clean and
// fault-injected executions so both accepting and rejecting paths are
// exercised through every codec.
package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"reflect"
	"testing"

	"mtc/internal/core"
	"mtc/internal/corpus"
	"mtc/internal/graph"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

// codecs is the encode axis of the differential: every saved-history
// wire format, each also wrapped in gzip to exercise the sniffing path.
var codecs = []struct {
	name string
	enc  func(io.Writer, *history.History) error
}{
	{"json", history.WriteJSON},
	{"ndjson", history.WriteNDJSON},
	{"mtcb", history.WriteMTCB},
}

// codecVerdict summarizes one check for cross-codec comparison.
type codecVerdict struct {
	OK        bool
	Txns      int
	Anomalies []history.Anomaly
	Cycle     []graph.Edge
}

func checkDecoded(h *history.History, lvl core.Level) codecVerdict {
	r := coreCheck(h, lvl)
	return codecVerdict{OK: r.OK, Txns: len(h.Txns), Anomalies: canonAnomalies(r.Anomalies), Cycle: r.Cycle}
}

// roundTrip encodes h with enc (optionally gzipped) and decodes it back
// through ReadAuto.
func roundTrip(t *testing.T, h *history.History, enc func(io.Writer, *history.History) error, zip bool) *history.History {
	t.Helper()
	var buf bytes.Buffer
	if err := enc(&buf, h); err != nil {
		t.Fatalf("encode: %v", err)
	}
	raw := buf.Bytes()
	if zip {
		var zb bytes.Buffer
		zw := gzip.NewWriter(&zb)
		if _, err := zw.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		raw = zb.Bytes()
	}
	got, err := history.ReadAuto(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadAuto: %v", err)
	}
	return got
}

// TestDifferentialCodecs replays a mixed clean/faulty corpus through
// every codec x gzip combination and demands verdict equality with the
// in-memory original at SER and SI.
func TestDifferentialCodecs(t *testing.T) {
	check := func(h *history.History, tag string) {
		for _, lvl := range []core.Level{core.SER, core.SI} {
			want := checkDecoded(h, lvl)
			for _, c := range codecs {
				for _, zip := range []bool{false, true} {
					name := c.name
					if zip {
						name += ".gz"
					}
					got := checkDecoded(roundTrip(t, h, c.enc, zip), lvl)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s/%s: verdict diverges after round-trip\ncodec:    %+v\noriginal: %+v",
							tag, name, lvl, got, want)
					}
				}
			}
		}
	}

	histories := corpus.Differential(corpus.Shape{Seeds: 10, Sessions: 4, Objects: 4, Tenants: true, Bugs: 1}, check)
	if histories == 0 {
		t.Fatal("no histories generated")
	}
	t.Logf("codec differential over %d histories x %d codecs x 2 compressions x 2 levels",
		histories, len(codecs))
}

// TestDifferentialStreamCodecs drives the same corpus through the two
// streaming decoders (NDJSON StreamWriter and MTCB BinaryWriter, codec
// sniffed by NewAutoStreamReader) into the online checker and compares
// against the batch verdict on the materialized history.
func TestDifferentialStreamCodecs(t *testing.T) {
	streams := []struct {
		name string
		enc  func(io.Writer, *history.History) error
	}{
		{"ndjson-stream", func(buf io.Writer, h *history.History) error {
			sw, err := history.NewStreamWriter(buf, len(h.Sessions))
			if err != nil {
				return err
			}
			for _, txn := range h.Txns {
				if err := sw.WriteTxn(txn); err != nil {
					return err
				}
			}
			return sw.Flush()
		}},
		{"mtcb-stream", func(buf io.Writer, h *history.History) error {
			bw, err := history.NewBinaryWriter(buf, len(h.Sessions))
			if err != nil {
				return err
			}
			for _, txn := range h.Txns {
				if err := bw.WriteTxn(txn); err != nil {
					return err
				}
			}
			return bw.Close()
		}},
	}
	for seed := int64(1); seed <= 6; seed++ {
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: 3, Txns: 6, Objects: 3,
			Dist: workload.Uniform, Seed: seed, ReadOnlyFrac: 0.25,
		})
		h := runner.Run(kv.NewStore(kv.ModeSerializable), w, runner.Config{Retries: 2}).H
		want := coreCheck(h, core.SER)
		for _, s := range streams {
			var buf bytes.Buffer
			if err := s.enc(&buf, h); err != nil {
				t.Fatalf("%s: encode: %v", s.name, err)
			}
			sr, err := history.NewAutoStreamReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s: open: %v", s.name, err)
			}
			got, err := core.CheckStreamCtx(context.Background(), sr, core.SER, 0, 0)
			if err != nil {
				t.Fatalf("%s: stream check: %v", s.name, err)
			}
			if got.OK != want.OK {
				t.Fatalf("seed %d %s: stream OK=%v, batch OK=%v", seed, s.name, got.OK, want.OK)
			}
			if !reflect.DeepEqual(canonAnomalies(got.Anomalies), canonAnomalies(want.Anomalies)) {
				t.Fatalf("seed %d %s: anomaly sets diverge\nstream: %v\nbatch:  %v",
					seed, s.name, got.Anomalies, want.Anomalies)
			}
		}
	}
}
