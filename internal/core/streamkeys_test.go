package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"mtc/internal/core"
	"mtc/internal/history"
)

// keyChurn is a seeded serial stream over four sessions: read-modify-write
// chains on hot keys, and a pool of cold keys — "" among them — that only
// aborted transactions write for a while, so a windowed check frees their
// ids and hands them to keys that arrive later, before the cold key comes
// back with committed writes. Every key numbers its committed values from
// 1, so a key found under another key's id collides with it. With lost
// set, the stream ends in a lost update on the key revived last.
func keyChurn(seed uint64, txns int, lost bool) *history.History {
	rng := rand.New(rand.NewPCG(seed, 7))
	hot := []history.Key{"h0", "h1", "h2"}
	b := history.NewBuilder(hot...)
	latest := map[history.Key]history.Value{"h0": 0, "h1": 0, "h2": 0} // ⊥T's
	aborted := history.Value(1 << 20)                                  // above every committed value
	cold := []history.Key{""}
	var warm []history.Key
	rmw := func(s int, k history.Key) {
		v, ok := latest[k]
		latest[k] = v + 1
		if ok {
			b.Txn(s, history.R(k, v), history.W(k, v+1))
		} else {
			b.Txn(s, history.W(k, v+1))
		}
	}
	for i := 0; i < txns; i++ {
		s := rng.IntN(4)
		switch p := rng.IntN(10); {
		case p < 4:
			rmw(s, hot[rng.IntN(len(hot))])
		case p < 7 && len(cold) > 0:
			aborted++
			b.AbortedTxn(s, history.W(cold[rng.IntN(len(cold))], aborted))
		case p < 9 && len(warm) > 0:
			rmw(s, warm[rng.IntN(len(warm))])
		case rng.IntN(4) == 0 && len(cold) > 0: // revive a cold key
			j := rng.IntN(len(cold))
			warm = append(warm, cold[j])
			cold = append(cold[:j], cold[j+1:]...)
		default:
			cold = append(cold, history.Key(fmt.Sprintf("c%d", i)))
		}
	}
	if lost && len(warm) > 0 {
		k := warm[len(warm)-1]
		rmw(2, k)
		v := latest[k]
		b.Txn(0, history.R(k, v), history.W(k, v+1))
		b.Txn(1, history.R(k, v), history.W(k, v+2))
	}
	return b.Build()
}

// arenaRestart is a stream that crosses the NDJSON reader's key-table
// restart: read-modify-write chains on hot keys between transactions that
// each write 50 fresh keys, until the table has restarted. Three batches
// of the hot chains later it plants violation: "lost" a lost update,
// "stale" a session reading a version older than one it has already read.
func arenaRestart(violation string) *history.History {
	hot := []history.Key{"h0", "h1", "h2"}
	b := history.NewBuilder(hot...)
	latest := make([]history.Value, len(hot))
	rmw := func(s, k int) {
		b.Txn(s, history.R(hot[k], latest[k]), history.W(hot[k], latest[k]+1))
		latest[k]++
	}
	fresh := 0
	for i := 0; fresh < 66_000; i++ {
		rmw(i%3, i%len(hot))
		if i%2 == 1 {
			ops := make([]history.Op, 50)
			for j := range ops {
				ops[j] = history.W(history.Key(fmt.Sprintf("f%d", fresh)), 1)
				fresh++
			}
			b.Txn(3, ops...)
		}
	}
	for i := 0; i < 3*core.ReadAheadBatch; i++ {
		rmw(i%3, i%len(hot))
	}
	switch violation {
	case "lost":
		b.Txn(0, history.R("h0", latest[0]), history.W("h0", latest[0]+1))
		b.Txn(1, history.R("h0", latest[0]), history.W("h0", latest[0]+2))
	case "stale":
		b.Txn(0, history.R("h1", latest[1]))
		rmw(1, 1)
		b.Txn(0, history.R("h1", latest[1]-2))
	}
	for i := 0; i < core.ReadAheadBatch; i++ {
		rmw(i%3, i%len(hot))
	}
	return b.Build()
}

// TestCheckStreamKeyIDsMatchAdd: finding keys through the ids the NDJSON
// reader interned changes no result. Each stream is checked by
// CheckStreamCtx, whose checker binds the reader's ids, and by the loop
// that feeds Incremental by key alone, at window 0 and at small windows,
// and the two Results must be identical. The churn streams free key ids
// at compaction and reuse them while the reader still numbers the dead
// key, and now and then a record comes with no ids; the restart streams
// renumber every key mid-stream.
func TestCheckStreamKeyIDsMatchAdd(t *testing.T) {
	type stream struct {
		name    string
		h       *history.History
		bad     bool // a violation is planted
		windows []int
		plain   int // every plain-th record is spelled for encoding/json, if > 0
	}
	var streams []stream
	for seed := uint64(1); seed <= 6; seed++ {
		lost := seed%2 == 0
		streams = append(streams, stream{fmt.Sprintf("churn/%d", seed), keyChurn(seed, 3000, lost), lost, []int{0, 4, 16}, 211})
	}
	streams = append(streams, stream{"restart/", arenaRestart(""), false, []int{0, 256}, 0},
		stream{"restart/lost", arenaRestart("lost"), true, []int{0}, 0},
		stream{"restart/stale", arenaRestart("stale"), true, []int{0}, 0})
	for _, s := range streams {
		var buf bytes.Buffer
		if err := history.WriteNDJSON(&buf, s.h); err != nil {
			t.Fatal(err)
		}
		// A record encoding/json decodes comes with no ids.
		lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
		for i := s.plain; s.plain > 0 && i < len(lines); i += s.plain {
			lines[i] = bytes.Replace(lines[i], []byte(`,"sess":`), []byte(`, "sess":`), 1)
		}
		doc := bytes.Join(lines, nil)
		src := func() history.TxnStream {
			sr, err := history.NewStreamReader(bytes.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			return sr
		}
		for _, lvl := range []core.Level{core.SER, core.SI} {
			for _, window := range s.windows {
				want, err := syncStreamCheck(src(), lvl, window)
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.CheckStreamCtx(context.Background(), src(), lvl, window, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s window %d:\nkeyed: %+v\nAdd:   %+v", s.name, lvl, window, got, want)
				}
				if s.bad == want.OK {
					t.Fatalf("%s %s window %d: OK=%v: %s", s.name, lvl, window, want.OK, want.Witness())
				}
			}
		}
	}
}
