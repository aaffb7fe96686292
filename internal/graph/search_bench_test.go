package graph

import (
	"math/rand"
	"sync"
	"testing"
)

var (
	dag100kOnce sync.Once
	dag100k     *Graph
)

// searchDAG100k is the fixed input of the cycle-search benchmarks: a
// seeded synthetic dependency graph over 100 000 nodes, built serially so
// every process searches the same arcs. Node v has a session predecessor
// 16 back; it reads and overwrites one key of a writer w up to 1 000
// back (a WR and a WW arc), and a node u between them that read the
// version v overwrote anti-depends on v (an RW arc); every other node
// also reads from a second writer. Every arc points forward, so the graph
// is acyclic whether or not RW arcs are composed, and each search walks
// all of it.
func searchDAG100k(b *testing.B) *Graph {
	dag100kOnce.Do(func() {
		const n, keys = 100000, 1000
		names := make([]string, keys)
		for i := range names {
			names[i] = string(rune('a'+i%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i/676))
		}
		rng := rand.New(rand.NewSource(46))
		bld := NewBuilderNames(n, 4*n, names)
		back := func(v int) int32 { return int32(v - 1 - rng.Intn(min(v, 1000))) }
		for v := 1; v < n; v++ {
			if v >= 16 {
				bld.AddArc(Arc{From: int32(v - 16), To: int32(v), Obj: NoObj, Kind: SO})
			}
			w, u, k := back(v), back(v), rng.Int31n(keys)
			bld.AddArc(Arc{From: w, To: int32(v), Obj: k, Kind: WR})
			bld.AddArc(Arc{From: w, To: int32(v), Obj: k, Kind: WW})
			if u > w {
				bld.AddArc(Arc{From: u, To: int32(v), Obj: k, Kind: RW})
			}
			if v%2 == 0 {
				bld.AddArc(Arc{From: back(v), To: int32(v), Obj: rng.Int31n(keys), Kind: WR})
			}
		}
		dag100k = bld.Build()
	})
	// The input's digest: an FNV-1a fold of every arc.
	h := uint64(14695981039346656037)
	for _, a := range dag100k.arcs {
		h = (h ^ uint64(a.From)<<32 ^ uint64(a.To)<<8 ^ uint64(a.Obj)<<44 ^ uint64(a.Kind)) * 1099511628211
	}
	if m := dag100k.NumEdges(); m != 399905 || h != 0xaf58b09b7d0c8b56 {
		b.Fatalf("search input drifted: %d arcs, digest %#x", m, h)
	}
	return dag100k
}

// BenchmarkFindCycle100k is the plain search (SER) over the whole of the
// fixed 100 000-node input.
func BenchmarkFindCycle100k(b *testing.B) {
	g := searchDAG100k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.FindCycle() != nil {
			b.Fatal("cycle in a DAG")
		}
	}
}

// BenchmarkFindComposedCycle100k is the composed search (SI), (E∖RW) ;
// RW?, over the same input.
func BenchmarkFindComposedCycle100k(b *testing.B) {
	g := searchDAG100k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c, _ := g.FindComposedCycle(); c != nil {
			b.Fatal("composed cycle in a DAG")
		}
	}
}
