package polygraph

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"mtc/internal/corpus"
	"mtc/internal/graph"
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

// legacySparseReach is sparseReach as it was before its rows became
// node-indexed: a map from each collected source to its row.
type legacySparseReach map[int]graph.Bitset

func (s legacySparseReach) Reach(u, v int) bool {
	row, ok := s[u]
	if !ok {
		panic(fmt.Sprintf("legacy sparse reachability queried for uncollected source %d", u))
	}
	return row.Test(v)
}

// legacySerReach is serReach as it was before the source set became a
// []bool: a map of the queried sources, sorted into the row request,
// and the rows stored in a map-backed reacher.
func legacySerReach(ctx context.Context, p *Polygraph) (reacher, error) {
	g := graphOf(p.N, p.Known)
	srcSet := make(map[int]struct{})
	for _, c := range p.Cons {
		for _, e := range c.A {
			srcSet[e.To] = struct{}{}
		}
		for _, e := range c.B {
			srcSet[e.To] = struct{}{}
		}
	}
	if len(srcSet)*64 >= p.N {
		c, acyclic, err := graph.NewClosure(ctx, g)
		if err != nil || !acyclic {
			return nil, err
		}
		return c, nil
	}
	if !g.Acyclic() {
		return nil, nil
	}
	sources := make([]int, 0, len(srcSet))
	for s := range srcSet {
		sources = append(sources, s)
	}
	sort.Ints(sources)
	rows, err := graph.ReachRows(ctx, g, sources)
	if err != nil {
		return nil, err
	}
	sr := make(legacySparseReach, len(sources))
	for i, s := range sources {
		sr[s] = rows[i]
	}
	return sr, nil
}

// legacyPrune is Prune as it was while a round could check its
// constraints on a worker pool, run at one worker: every verdict of a
// round is computed against the round's snapshot first, then the
// verdicts merge in constraint order. Its SER snapshot comes from
// legacySerReach. It is the oracle Prune is held to.
func legacyPrune(ctx context.Context, p *Polygraph, mode Mode) (bool, error) {
	for {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		var (
			reach reacher
			si    *siIndex
			err   error
		)
		if mode == SER {
			reach, err = legacySerReach(ctx, p)
		} else {
			si = newSIIndex(p.N, p.Known)
			reach, err = composedReach(ctx, p.N, si.composed)
		}
		if err != nil {
			return false, err
		}
		if reach == nil {
			return false, nil
		}
		bad := func(edges []sat.Edge) bool {
			if mode == SER {
				return createsCycle(reach, edges)
			}
			return si.optionClosesCycle(reach, edges)
		}
		const (
			keep = iota
			forceA
			forceB
			unsat
		)
		verdicts := make([]uint8, len(p.Cons))
		for i, c := range p.Cons {
			if i%256 == 0 {
				if err := ctx.Err(); err != nil {
					return false, err
				}
			}
			aBad, bBad := bad(c.A), bad(c.B)
			switch {
			case aBad && bBad:
				verdicts[i] = unsat
			case aBad:
				verdicts[i] = forceB
			case bBad:
				verdicts[i] = forceA
			}
		}
		var remaining []sat.Constraint
		changed := false
		for i, c := range p.Cons {
			switch verdicts[i] {
			case unsat:
				return false, nil
			case forceB:
				p.Known = append(p.Known, c.B...)
				p.Forced++
				changed = true
			case forceA:
				p.Known = append(p.Known, c.A...)
				p.Forced++
				changed = true
			default:
				remaining = append(remaining, c)
			}
		}
		p.Cons = remaining
		if !changed {
			return true, nil
		}
	}
}

// randomHistory builds a small random register history: blind writes and
// reads of previously written values, several sessions, so the polygraph
// carries both known edges and undetermined writer-pair constraints.
func randomHistory(rng *rand.Rand, sessions, txns, keys int) *history.History {
	names := make([]history.Key, keys)
	for i := range names {
		names[i] = history.Key(string(rune('a' + i)))
	}
	b := history.NewBuilder(names...)
	written := map[history.Key][]history.Value{}
	for _, k := range names {
		written[k] = []history.Value{0}
	}
	next := history.Value(1)
	for s := 0; s < sessions; s++ {
		for i := 0; i < txns; i++ {
			k := names[rng.Intn(keys)]
			switch rng.Intn(3) {
			case 0: // blind write
				b.Txn(s, history.W(k, next))
				written[k] = append(written[k], next)
				next++
			case 1: // read some written value
				vs := written[k]
				b.Txn(s, history.R(k, vs[rng.Intn(len(vs))]))
			default: // RMW
				vs := written[k]
				b.Txn(s, history.R(k, vs[rng.Intn(len(vs))]), history.W(k, next))
				written[k] = append(written[k], next)
				next++
			}
		}
	}
	return b.Build()
}

// clone duplicates a polygraph so one build can be pruned repeatedly.
func clone(p *Polygraph) *Polygraph {
	return &Polygraph{
		N:     p.N,
		Known: append([]sat.Edge(nil), p.Known...),
		Cons:  append([]sat.Constraint(nil), p.Cons...),
	}
}

// pruneMismatch prunes one build of h both ways under mode and compares
// the verdict, the forced count, the known edges in order and the
// residual constraints in order. It reports whether the build had
// constraints.
func pruneMismatch(h *history.History, mode Mode) (bool, error) {
	base := Build(history.NewIndex(h))
	got, want := clone(base), clone(base)
	ctx := context.Background()
	gotOK, err := got.Prune(ctx, mode)
	if err != nil {
		return false, err
	}
	wantOK, err := legacyPrune(ctx, want, mode)
	if err != nil {
		return false, err
	}
	switch {
	case gotOK != wantOK || got.Forced != want.Forced:
		return false, fmt.Errorf("mode %d: ok=%v forced=%d, legacy ok=%v forced=%d", mode, gotOK, got.Forced, wantOK, want.Forced)
	case !reflect.DeepEqual(got.Known, want.Known):
		return false, fmt.Errorf("mode %d: known edges diverge (%d vs %d)", mode, len(got.Known), len(want.Known))
	case !reflect.DeepEqual(got.Cons, want.Cons):
		return false, fmt.Errorf("mode %d: residual constraints diverge (%d vs %d)", mode, len(got.Cons), len(want.Cons))
	}
	return len(base.Cons) > 0, nil
}

// TestPruneMatchesLegacy: over random register histories, the shared
// differential corpus and the edge-case shapes, Prune's in-order loop
// gives the verdict-array form's ok, Forced, Known and Cons under SER and
// SI.
func TestPruneMatchesLegacy(t *testing.T) {
	constrained, n := 0, 0
	check := func(h *history.History, tag string) {
		for _, mode := range []Mode{SER, SI} {
			had, err := pruneMismatch(h, mode)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if had && mode == SER {
				constrained++
			}
		}
		n++
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		check(randomHistory(rng, 3, 8, 2+rng.Intn(3)), fmt.Sprintf("random %d", trial))
	}
	if constrained < 10 {
		t.Fatalf("corpus too easy: only %d/60 random polygraphs had constraints", constrained)
	}
	corpus.Differential(corpus.Shape{Seeds: 60, Sessions: 3, Objects: 4, Bugs: 5}, check)
	for _, size := range []struct {
		txns int
		seed int64
	}{{24, 1}, {200, 2}, {1200, 3}} {
		for _, s := range corpus.Shapes(size.txns, size.seed) {
			check(s.H, fmt.Sprintf("%s/%d", s.Name, size.txns))
		}
	}
	t.Logf("%d histories prune identically (%d with constraints)", n, constrained)
}
