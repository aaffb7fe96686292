package history_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mtc/internal/core"
	"mtc/internal/corpus"
	"mtc/internal/graph"
	"mtc/internal/history"
)

// legacyEmitDeps is the batch derivation as it stood before the
// resolved-reads column and the per-(writer, key) overwriter chains,
// kept as their oracle: pass A binary-searches every read's writer, and
// pass C compares every reader of a writer with every overwriter of it —
// O(|R| × |W|) per writer, quadratic in a wide init transaction.
func legacyEmitDeps(ix *history.Index, emit func(graph.Edge)) []core.Divergence {
	n := ix.NumTxns()
	nr := ix.NumReads()
	readW := make([]int32, nr)
	isRMW := make([]bool, nr)
	wrCnt := make([]int32, n+1)
	wwCnt := make([]int32, n+1)
	pos := 0
	for s := 0; s < n; s++ {
		rk, rv := ix.Reads(s)
		wk, _ := ix.Writes(s)
		j := 0
		for i, k := range rk {
			for j < len(wk) && wk[j] < k {
				j++
			}
			w := ix.Writer(k, rv[i])
			if w < 0 || w == s {
				readW[pos+i] = -1
				continue
			}
			readW[pos+i] = int32(w)
			wrCnt[w+1]++
			if j < len(wk) && wk[j] == k {
				isRMW[pos+i] = true
				wwCnt[w+1]++
			}
		}
		pos += len(rk)
	}
	for w := 0; w < n; w++ {
		wrCnt[w+1] += wrCnt[w]
		wwCnt[w+1] += wwCnt[w]
	}

	totalWR, totalWW := wrCnt[n], wwCnt[n]
	wrKey := make([]history.KeyID, totalWR)
	wrTo := make([]int32, totalWR)
	wwKey := make([]history.KeyID, totalWW)
	wwTo := make([]int32, totalWW)
	firstRMW := make([]int32, ix.NumWriterSlots())
	for i := range firstRMW {
		firstRMW[i] = -1
	}
	var divs []core.Divergence
	pos = 0
	for s := 0; s < n; s++ {
		rk := ix.ReadKeys(s)
		for i, k := range rk {
			w := readW[pos+i]
			if w < 0 {
				continue
			}
			emit(graph.Edge{From: int(w), To: s, Kind: graph.WR, Obj: string(ix.KeyName(k))})
			wrKey[wrCnt[w]] = k
			wrTo[wrCnt[w]] = int32(s)
			wrCnt[w]++
			if !isRMW[pos+i] {
				continue
			}
			emit(graph.Edge{From: int(w), To: s, Kind: graph.WW, Obj: string(ix.KeyName(k))})
			wwKey[wwCnt[w]] = k
			wwTo[wwCnt[w]] = int32(s)
			wwCnt[w]++
			if slot := ix.WriterSlot(k, w); slot >= 0 {
				if prev := firstRMW[slot]; prev >= 0 {
					divs = append(divs, core.Divergence{Key: ix.KeyName(k), Writer: int(w), Reader1: int(prev), Reader2: s})
				} else {
					firstRMW[slot] = int32(s)
				}
			}
		}
		pos += len(rk)
	}

	for w := 0; w < n; w++ {
		var rLo, oLo int32
		if w > 0 {
			rLo, oLo = wrCnt[w-1], wwCnt[w-1]
		}
		rHi, oHi := wrCnt[w], wwCnt[w]
		if rLo == rHi || oLo == oHi {
			continue
		}
		for i := rLo; i < rHi; i++ {
			for j := oLo; j < oHi; j++ {
				if wwKey[j] != wrKey[i] || wwTo[j] == wrTo[i] {
					continue
				}
				emit(graph.Edge{From: int(wrTo[i]), To: int(wwTo[j]), Kind: graph.RW, Obj: string(ix.KeyName(wrKey[i]))})
			}
		}
	}
	return divs
}

// legacyMismatch holds ix to all three oracles: the postings, resolved
// reads and pre-check to legacyPostings and legacyCheckInternal
// (history.LegacyMismatch), and the derivation to legacyEmitDeps — the
// emitted edge sequence slices.Equal, the divergences DeepEqual. Then
// the SER and SI rungs over core's derivation, with no pre-check, must
// decide what the legacy edges decide: same edge count, cycle and
// divergence witness.
func legacyMismatch(ix *history.Index) error {
	if err := history.LegacyMismatch(ix); err != nil {
		return err
	}
	var got, want []graph.Edge
	divs, err := core.DeriveDepsCtx(context.Background(), ix, func(e graph.Edge) { got = append(got, e) })
	if err != nil {
		return err
	}
	wantDivs := legacyEmitDeps(ix, func(e graph.Edge) { want = append(want, e) })
	if !slices.Equal(got, want) {
		return fmt.Errorf("derivation: %d edges, legacy %d (first difference at %d)", len(got), len(want), firstDiff(got, want))
	}
	if !reflect.DeepEqual(divs, wantDivs) {
		return fmt.Errorf("divergences: %v, legacy %v", divs, wantDivs)
	}

	b := graph.NewBuilder(ix.NumTxns(), 0)
	ix.History().SessionOrder(func(a, c int) { b.AddEdge(graph.Edge{From: a, To: c, Kind: graph.SO}) })
	for _, e := range want {
		b.AddEdge(e)
	}
	g := b.Build()
	d, err := core.BuildDependencyCtx(context.Background(), ix)
	if err != nil {
		return err
	}
	for _, lvl := range []core.Level{core.SER, core.SI} {
		res, err := d.Rung(context.Background(), lvl)
		if err != nil {
			return err
		}
		var cycle []graph.Edge
		var div *core.Divergence
		switch {
		case lvl == core.SER:
			cycle = g.FindCycle()
		case len(wantDivs) > 0:
			div = &wantDivs[0]
		default:
			_, cycle = g.FindComposedCycle()
		}
		if res.NumEdges != g.NumEdges() || !reflect.DeepEqual(res.Cycle, cycle) || !reflect.DeepEqual(res.Divergence, div) {
			return fmt.Errorf("%s rung: %s; legacy edges decide %d edges, cycle %v, divergence %v",
				lvl, res.Explain(), g.NumEdges(), cycle, div)
		}
	}
	return nil
}

func firstDiff(a, b []graph.Edge) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// checkLegacy holds h's NewIndex, and the index ReadMTCBIndexed decodes
// from its MTCB encoding, to the oracles.
func checkLegacy(t *testing.T, h *history.History, tag string) {
	t.Helper()
	if err := legacyMismatch(history.NewIndex(h)); err != nil {
		t.Fatalf("%s: NewIndex: %v", tag, err)
	}
	var buf bytes.Buffer
	if err := history.WriteMTCB(&buf, h); err != nil {
		t.Fatal(err)
	}
	ix, err := history.ReadMTCBIndexed(&buf)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if err := legacyMismatch(ix); err != nil {
		t.Fatalf("%s: ReadMTCBIndexed: %v", tag, err)
	}
}

// TestIndexMatchesLegacyOnCorpus runs the oracles over every history of
// the shared differential corpus and the anomaly fixtures.
func TestIndexMatchesLegacyOnCorpus(t *testing.T) {
	n := corpus.Differential(corpus.Shape{Seeds: 130, Sessions: 3, Objects: 4, Bugs: 5},
		func(h *history.History, tag string) { checkLegacy(t, h, tag) })
	for _, f := range history.Fixtures() {
		checkLegacy(t, f.H, f.Name)
		n++
	}
	t.Logf("%d histories equal under all three oracles", n)
}

// TestIndexMatchesLegacyOnShapes runs the oracles over the edge cases no
// workload produces — descending and shuffled per-key values, duplicate
// writes within and across transactions, intermediate versions read and
// overwritten, a three-way DIVERGENCE, aborted writers, every pre-check
// fault and a 4 000-key init transaction — at three sizes and seeds.
func TestIndexMatchesLegacyOnShapes(t *testing.T) {
	for _, size := range []struct {
		txns int
		seed int64
	}{{24, 1}, {200, 2}, {1200, 3}} {
		for _, s := range corpus.Shapes(size.txns, size.seed) {
			checkLegacy(t, s.H, fmt.Sprintf("%s/%d", s.Name, size.txns))
		}
	}
}

// FuzzIndexMatchesLegacy takes bytes through ReadAuto as FuzzReadAuto
// does: every history the sniffer accepts must be equal under all three
// oracles, through NewIndex and through the codec's own indexed read.
func FuzzIndexMatchesLegacy(f *testing.F) {
	for _, s := range corpus.Shapes(24, 1) {
		if s.Name == "wide-init" {
			continue
		}
		var bin, txt bytes.Buffer
		if err := history.WriteMTCB(&bin, s.H); err != nil {
			f.Fatal(err)
		}
		if err := history.WriteText(&txt, s.H); err != nil {
			f.Fatal(err)
		}
		f.Add(bin.Bytes())
		f.Add(txt.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := history.ReadAuto(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := legacyMismatch(history.NewIndex(h)); err != nil {
			t.Fatalf("NewIndex: %v", err)
		}
		ix, err := history.ReadAutoIndexed(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ReadAuto accepted what ReadAutoIndexed refuses: %v", err)
		}
		if err := legacyMismatch(ix); err != nil {
			t.Fatalf("ReadAutoIndexed: %v", err)
		}
	})
}
