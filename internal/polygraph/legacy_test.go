package polygraph

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"mtc/internal/corpus"
	"mtc/internal/history"
	"mtc/internal/sat"
)

// legacyBuild is Build as it was when the direct RMW successors lived in
// a map keyed by (writer, key): sorted into (writer, key) order for the
// anti-dependencies, rescanned once per key for the chains. It is the
// oracle Build is held to, element for element.
func legacyBuild(ix *history.Index) *Polygraph {
	h := ix.History()
	p := &Polygraph{N: len(h.Txns)}
	readersOf := make([][]kr, len(h.Txns))
	knownWW := map[legacyWK]int{}
	h.SessionOrder(func(a, b int) {
		p.Known = append(p.Known, sat.Edge{From: a, To: b, Kind: sat.Base})
	})
	for s := range h.Txns {
		rk, rw := ix.ReadKeys(s), ix.ReadWriters(s)
		for i, x := range rk {
			u := int(rw[i])
			if u < 0 || u == s {
				continue
			}
			p.Known = append(p.Known, sat.Edge{From: u, To: s, Kind: sat.Base})
			readersOf[u] = append(readersOf[u], kr{key: x, r: s})
			if _, w := ix.WriteVal(s, x); w {
				p.Known = append(p.Known, sat.Edge{From: u, To: s, Kind: sat.Base})
				knownWW[legacyWK{u, x}] = s
			}
		}
	}
	wwSlots := make([]legacyWK, 0, len(knownWW))
	for slot := range knownWW {
		wwSlots = append(wwSlots, slot)
	}
	sort.Slice(wwSlots, func(i, j int) bool {
		if wwSlots[i].u != wwSlots[j].u {
			return wwSlots[i].u < wwSlots[j].u
		}
		return wwSlots[i].k < wwSlots[j].k
	})
	for _, uk := range wwSlots {
		w := knownWW[uk]
		for _, e := range readersOf[uk.u] {
			if e.key == uk.k && e.r != w {
				p.Known = append(p.Known, sat.Edge{From: e.r, To: w, Kind: sat.RW})
			}
		}
	}
	for kid := 0; kid < ix.NumKeys(); kid++ {
		x := history.KeyID(kid)
		succ := map[int]int{}
		for k, s := range knownWW {
			if k.k == x {
				succ[k.u] = s
			}
		}
		chains := legacyChains(ix.WritersOf(x), succ)
		for i := 0; i < len(chains); i++ {
			for j := i + 1; j < len(chains); j++ {
				c, d := chains[i], chains[j]
				p.Cons = append(p.Cons, sat.Constraint{
					A: orient(c.tail, d.head, x, readersOf),
					B: orient(d.tail, c.head, x, readersOf),
				})
			}
		}
	}
	return p
}

type legacyWK struct {
	u int
	k history.KeyID
}

func legacyChains(writers []int32, succ map[int]int) []chain {
	hasPred := map[int]bool{}
	for _, s := range succ {
		hasPred[s] = true
	}
	inChain := map[int]bool{}
	var chains []chain
	for _, w32 := range writers {
		w := int(w32)
		if hasPred[w] {
			continue
		}
		tail := w
		inChain[w] = true
		for {
			s, ok := succ[tail]
			if !ok {
				break
			}
			tail = s
			inChain[s] = true
		}
		chains = append(chains, chain{head: w, tail: tail})
	}
	for _, w32 := range writers {
		if w := int(w32); !inChain[w] {
			chains = append(chains, chain{head: w, tail: w})
		}
	}
	return chains
}

// buildMismatch compares Build with legacyBuild on h.
func buildMismatch(h *history.History) error {
	ix := history.NewIndex(h)
	got, want := Build(ix), legacyBuild(ix)
	if got.N != want.N {
		return fmt.Errorf("N = %d, want %d", got.N, want.N)
	}
	for i := range max(len(got.Known), len(want.Known)) {
		if i >= len(got.Known) || i >= len(want.Known) || got.Known[i] != want.Known[i] {
			return fmt.Errorf("Known: %d edges, want %d; they differ at %d", len(got.Known), len(want.Known), i)
		}
	}
	for i := range max(len(got.Cons), len(want.Cons)) {
		if i >= len(got.Cons) || i >= len(want.Cons) ||
			!slices.Equal(got.Cons[i].A, want.Cons[i].A) || !slices.Equal(got.Cons[i].B, want.Cons[i].B) {
			return fmt.Errorf("Cons: %d constraints, want %d; they differ at %d", len(got.Cons), len(want.Cons), i)
		}
	}
	return nil
}

// TestBuildMatchesLegacy: over the shared differential corpus and the
// edge-case shapes — duplicate and intermediate writes, a three-way
// DIVERGENCE, aborted writers — Build emits the map-based construction's
// Known and Cons sequences element for element.
func TestBuildMatchesLegacy(t *testing.T) {
	n := corpus.Differential(corpus.Shape{Seeds: 60, Sessions: 3, Objects: 4, Bugs: 5},
		func(h *history.History, tag string) {
			if err := buildMismatch(h); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
		})
	for _, size := range []struct {
		txns int
		seed int64
	}{{24, 1}, {200, 2}, {1200, 3}} {
		for _, s := range corpus.Shapes(size.txns, size.seed) {
			if err := buildMismatch(s.H); err != nil {
				t.Fatalf("%s/%d: %v", s.Name, size.txns, err)
			}
			n++
		}
	}
	t.Logf("%d histories build identical polygraphs", n)
}
