package core

import (
	"reflect"
	"testing"

	"mtc/internal/history"
)

// The fuzz input is a tiny program that builds a mini-transaction
// history:
//
//	byte 0     bit 0: level (0 SER, 1 SI); bits 1-4: window - 1;
//	           bit 5: no initial transaction
//	per txn    header: bits 0-1 session, bit 2 aborted, bits 3-4 ops - 1
//	per op     a: bits 0-1 kind, bits 2-3 key;  v: operand
//
// Kinds 0 and 1 read and write the operand itself, so any small history
// (the anomaly fixtures) has an encoding. Kinds 2 and 3 are what a store
// would do: read the operand-th most recent version written to the key so
// far (0 = the latest, committed or not) and write a fresh unique value —
// the mutator gets from them the long unique-value RMW chains, stale
// reads, lost updates and aborted reads a compaction has to survive.
const (
	fuzzReadRaw = iota
	fuzzWriteRaw
	fuzzReadVersion
	fuzzWriteFresh
)

var fuzzKeys = []history.Key{"w", "x", "y", "z"}

const fuzzMaxTxns = 96

func fuzzHistory(data []byte) (h *history.History, lvl Level, window int) {
	lvl, window = SER, 1
	b := history.NewBuilder(fuzzKeys...)
	versions := make([][]history.Value, len(fuzzKeys))
	for k := range versions {
		versions[k] = []history.Value{0}
	}
	if len(data) > 0 {
		if data[0]&1 == 1 {
			lvl = SI
		}
		window = int(data[0]>>1&15) + 1
		if data[0]&32 != 0 {
			b = history.NewBuilder()
			for k := range versions {
				versions[k] = nil
			}
		}
		data = data[1:]
	}
	fresh := history.Value(1000)
	for n := 0; len(data) > 0 && n < fuzzMaxTxns; n++ {
		hdr := data[0]
		data = data[1:]
		var ops []history.Op
		for i := 0; i <= int(hdr>>3&3) && len(data) >= 2; i++ {
			a, v := data[0], history.Value(data[1])
			data = data[2:]
			k := int(a >> 2 & 3)
			switch vs := versions[k]; {
			case a&3 == fuzzReadVersion && len(vs) > 0:
				ops = append(ops, history.R(fuzzKeys[k], vs[len(vs)-1-int(v)%len(vs)]))
			case a&1 == 0: // a raw read, or a version read of a key nobody wrote
				ops = append(ops, history.R(fuzzKeys[k], v))
			default:
				if a&3 == fuzzWriteFresh {
					v, fresh = fresh, fresh+1
				}
				ops = append(ops, history.W(fuzzKeys[k], v))
				versions[k] = append(versions[k], v)
			}
		}
		if hdr&4 != 0 {
			b.AbortedTxn(int(hdr&3), ops...)
		} else {
			b.Txn(int(hdr&3), ops...)
		}
	}
	return b.Build(), lvl, window
}

// fuzzEncode is the inverse of fuzzHistory for histories small enough to
// have a raw encoding; ok is false for the others.
func fuzzEncode(h *history.History, config byte) (data []byte, ok bool) {
	keys := map[history.Key]int{}
	data = []byte{config}
	for _, t := range h.Txns {
		if t.Session < 0 {
			continue // the init transaction is implied
		}
		if t.Session > 3 || len(t.Ops) == 0 || len(t.Ops) > 4 {
			return nil, false
		}
		hdr := byte(t.Session) | byte(len(t.Ops)-1)<<3
		if !t.Committed {
			hdr |= 4
		}
		data = append(data, hdr)
		for _, op := range t.Ops {
			k, seen := keys[op.Key]
			if !seen {
				k = len(keys)
				keys[op.Key] = k
			}
			if k > 3 || op.Value < 0 || op.Value > 255 {
				return nil, false
			}
			kind := byte(fuzzReadRaw)
			if op.Kind == history.OpWrite {
				kind = fuzzWriteRaw
			}
			data = append(data, kind|byte(k)<<2, byte(op.Value))
		}
	}
	return data, true
}

// FuzzIncrementalCompact is the guard of Incremental's two tables and of
// Compact: on every history the windowed replay must report what the
// unbounded replay reports — verdict, anomaly, divergence witness, edge
// count, first offending commit — both must decide what the batch
// checker decides, and every graph a compaction rebuilds must keep the
// reachability of the reference rebuild (compactChecked).
func FuzzIncrementalCompact(f *testing.F) {
	seeded := 0
	for _, fx := range history.Fixtures() {
		for _, config := range []byte{0, 1, 2<<1 | 1, 7 << 1} {
			if data, ok := fuzzEncode(fx.H, config); ok {
				f.Add(data)
				seeded++
			}
		}
	}
	if seeded == 0 {
		f.Fatal("no fixture has a fuzz encoding")
	}
	// Store-shaped seeds: RMW chains over two keys interleaved across four
	// sessions (clean), then the same followed by a stale RMW (lost
	// update), by a session reading the latest and then a long-overwritten
	// version (the RW edge to that version's overwriter closes the cycle),
	// and by an aborted writer whose value is read.
	rmw := func(sess, key byte) []byte {
		return []byte{sess | 1<<3, fuzzReadVersion | key<<2, 0, fuzzWriteFresh | key<<2, 0}
	}
	for _, config := range []byte{1 << 1, 1<<1 | 1, 3 << 1, 3<<1 | 1} {
		clean := []byte{config}
		for i := byte(0); i < 24; i++ {
			clean = append(clean, rmw(i&3, i%3&1)...)
		}
		f.Add(clean)
		lost := append(append([]byte{}, clean...), 2|1<<3, fuzzReadVersion|0<<2, 5, fuzzWriteFresh|0<<2, 0)
		f.Add(lost)
		stale := append(append([]byte{}, clean...), 2, fuzzReadVersion|0<<2, 0, 2, fuzzReadVersion|0<<2, 9)
		f.Add(stale)
		aborted := append(append([]byte{}, clean...), rmw(1|4, 1)...)
		aborted = append(aborted, 3, fuzzReadVersion|1<<2, 0)
		f.Add(append(aborted, rmw(0, 1)...))
	}
	// No initial transaction, and the very first transaction reads a value
	// only an aborted one writes: the replay must pin that writer to the
	// end although the reference comes from stream position 0.
	first := []byte{32 | 1<<1, 0, fuzzReadRaw | 1<<2, 5, 1 | 4, fuzzWriteRaw | 1<<2, 5}
	for i := 0; i < 20; i++ {
		first = append(first, 2, fuzzWriteFresh|2<<2, 0)
	}
	f.Add(first)

	f.Fuzz(func(t *testing.T, data []byte) {
		h, lvl, window := fuzzHistory(data)
		ref := replay(h, lvl, 0)
		got := replayChecked(t, h, lvl, window)
		// Cycle edges may legitimately differ — a path through a collapsed
		// epoch reports as a summary edge — and the compaction counters
		// must; everything else is the same verdict.
		if (len(got.Cycle) > 0) != (len(ref.Cycle) > 0) {
			t.Fatalf("%s window %d: cycle presence diverges\nunbounded: %s\nwindowed:  %s", lvl, window, ref.Witness(), got.Witness())
		}
		got.Cycle, got.CompactedTxns, got.CompactedEpochs = ref.Cycle, 0, 0
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s window %d: windowed replay diverges\nunbounded: %+v\nwindowed:  %+v", lvl, window, ref, got)
		}
		if batch := check(h, lvl); batch.OK != ref.OK {
			t.Fatalf("%s: batch OK=%v, online OK=%v\nbatch:  %s\nonline: %s", lvl, batch.OK, ref.OK, batch.Witness(), ref.Witness())
		}
	})
}
