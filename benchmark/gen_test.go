package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/history"
)

var allPlants = []plant{plantNone, plantLostUpdate, plantWriteSkew, plantStaleRead}

// TestKnownAnswersHold checks the generator's answers without trusting
// any one engine: every level's verdict is asked of two independent
// implementations, and the planted pairs are inspected directly.
func TestKnownAnswersHold(t *testing.T) {
	ctx := context.Background()
	verdict := func(g generated, engine string, opts checker.Options) checker.Report {
		t.Helper()
		rep, err := checker.Run(ctx, engine, g.h, opts)
		if err != nil {
			t.Fatalf("%s at %s on a %s history: %v", engine, opts.Level, g.plant, err)
		}
		return rep
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, p := range allPlants {
			for _, sp := range []spec{
				{txns: 300, sessions: 8, keys: 20, plant: p},
				{txns: 300, sessions: 8, keys: 6, tenants: 4, plant: p},
				{txns: 400, sessions: 6, keys: 30, plant: p, tail: true},
			} {
				g := generate(rand.New(rand.NewSource(seed)), sp)
				name := fmt.Sprintf("seed %d, %+v", seed, sp)
				if err := g.h.Validate(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := len(g.h.Txns) - 1; got != sp.txns {
					t.Fatalf("%s: %d transactions, want %d", name, got, sp.txns)
				}
				if sp.tail && p != plantNone && g.planted[0] < sp.txns-sp.txns/100-sp.tenants {
					t.Errorf("%s: planted at %d, outside the last 1%%", name, g.planted[0])
				}

				// SI: the MTC engine and PolySI. SER: the MTC engine and Cobra.
				// SSER: the MTC engine under both real-time encodings, and
				// the lattice profiler's own walk.
				engines := []struct {
					engine string
					opts   checker.Options
				}{
					{"mtc", checker.Options{Level: core.SI}},
					{"polysi", checker.Options{Level: core.SI}},
					{"mtc", checker.Options{Level: core.SER}},
					{"cobra", checker.Options{Level: core.SER}},
					{"mtc", checker.Options{Level: core.SSER, SparseRT: true}},
					{"mtc", checker.Options{Level: core.SSER}},
				}
				for _, e := range engines {
					rep := verdict(g, e.engine, e.opts)
					if want := p.satisfies(e.opts.Level); rep.OK != want {
						t.Errorf("%s: %s at %s says ok=%v, want %v (%s)", name, e.engine, e.opts.Level, rep.OK, want, rep.Detail)
					}
					if e.engine == "mtc" {
						if err := g.verify("mtc", e.opts.Level, &rep); err != nil {
							t.Errorf("%s: %v", name, err)
						}
					}
				}
				prof := verdict(g, "profile", checker.Options{Level: core.SER})
				if err := g.verify("profile", core.SER, &prof); err != nil {
					t.Errorf("%s: %v", name, err)
				}

				if p != plantNone {
					checkPlant(t, name, g)
				}
			}
		}
	}
}

// checkPlant inspects the planted pair itself: only they touch the
// fresh keys, both read the initial value, and the stale reader starts
// after the overwrite finished.
func checkPlant(t *testing.T, name string, g generated) {
	t.Helper()
	fresh := map[history.Key]bool{g.fresh[0]: true, g.fresh[1]: true}
	for i := 1; i < len(g.h.Txns); i++ {
		planted := i == g.planted[0] || i == g.planted[1]
		for _, op := range g.h.Txns[i].Ops {
			if fresh[op.Key] != planted {
				t.Fatalf("%s: T%d %v: fresh keys and planted transactions must coincide", name, i, op)
			}
			if planted && op.Kind == history.OpRead && op.Value != 0 {
				t.Fatalf("%s: planted T%d reads %v, want the initial value", name, i, op)
			}
		}
	}
	first, second := g.h.Txns[g.planted[0]], g.h.Txns[g.planted[1]]
	if first.Session == second.Session {
		t.Errorf("%s: planted pair shares session %d", name, first.Session)
	}
	if g.plant == plantStaleRead && first.Finish >= second.Start {
		t.Errorf("%s: stale reader starts at %d, before the overwrite finished at %d", name, second.Start, first.Finish)
	}
}

// TestEncodingsRoundTrip decodes what the workloads post and compares
// it with what was generated.
func TestEncodingsRoundTrip(t *testing.T) {
	for _, p := range allPlants {
		g := generate(rand.New(rand.NewSource(3)), spec{txns: 200, sessions: 8, keys: 16, tenants: 2, plant: p})
		var mtcb, ndjson bytes.Buffer
		if err := history.WriteMTCB(&mtcb, g.h); err != nil {
			t.Fatal(err)
		}
		if err := history.WriteNDJSON(&ndjson, g.h); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(g.h)
		if err != nil {
			t.Fatal(err)
		}
		for codec, read := range map[string]func() (*history.History, error){
			"mtcb":   func() (*history.History, error) { return history.ReadMTCB(&mtcb) },
			"ndjson": func() (*history.History, error) { return history.ReadNDJSON(&ndjson) },
			"json":   func() (*history.History, error) { return history.ReadJSON(bytes.NewReader(raw)) },
		} {
			back, err := read()
			if err != nil {
				t.Fatalf("%s, %s: %v", p, codec, err)
			}
			if !reflect.DeepEqual(back, g.h) {
				t.Errorf("%s: %s round trip changed the history", p, codec)
			}
		}

		frames, err := encodeFrames(g.h, 64)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []history.Txn
		for _, frame := range frames {
			fr, err := history.NewBinaryReader(bytes.NewReader(frame))
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for {
				txn, err := fr.Next()
				if err != nil {
					break
				}
				txn.ID = len(streamed) + 1
				streamed = append(streamed, txn)
				n++
			}
			if n == 0 || n > 64 {
				t.Errorf("%s: frame of %d transactions", p, n)
			}
		}
		if !reflect.DeepEqual(streamed, g.h.Txns[1:]) {
			t.Errorf("%s: session frames do not replay the capture", p)
		}
	}
}

// TestSameSeedSameBytes builds every workload's corpus twice.
func TestSameSeedSameBytes(t *testing.T) {
	payloads := func(seed int64) map[string][][]byte {
		out := map[string][][]byte{}
		for _, w := range workloads {
			inst, err := w.setup(env{seed: seed, sc: quickScale, tmpDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			switch v := inst.(type) {
			case *batchInst:
				out[w.name] = v.mtcb
			case *streamInst:
				out[w.name] = v.ndjson
			case *sessionInst:
				out[w.name] = append([][]byte{v.open}, flatten(v.frames)...)
			case *jobsInst:
				out[w.name] = flatten(v.bodies)
			}
			if err := inst.close(); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	a, b, other := payloads(1), payloads(1), payloads(2)
	for _, w := range workloads {
		if len(a[w.name]) == 0 {
			t.Fatalf("%s: no payloads", w.name)
		}
		if !reflect.DeepEqual(a[w.name], b[w.name]) {
			t.Errorf("%s: seed 1 gave different bytes twice", w.name)
		}
		if reflect.DeepEqual(a[w.name], other[w.name]) {
			t.Errorf("%s: seeds 1 and 2 gave the same bytes", w.name)
		}
	}
}

func flatten(xss [][][]byte) [][]byte {
	var out [][]byte
	for _, xs := range xss {
		out = append(out, xs...)
	}
	return out
}
