// Package workload provides the parametric workload generators of
// Section V-A: the MT workload generator (the paper's contribution), a
// Cobra-style general-transaction (GT) generator, an Elle-style
// list-append generator, and a synthetic lightweight-transaction history
// generator with controllable concurrency for the SSER experiments.
//
// Generators emit operation *specs* (which keys to touch and how); the
// runner assigns unique write values at execution time by combining a
// client identifier with a local counter, as in Section II-A. Every plan
// generator is a per-transaction shape draw handed to plan, the one
// session × transaction loop; source seeds its rng and distribution.
package workload

import (
	"fmt"
	"math/rand"
	"sync"
)

// DistKind names an object-access distribution (the skewness axis of
// Figures 7, 8).
type DistKind string

// The four distributions the paper evaluates.
const (
	Uniform     DistKind = "uniform"
	Zipfian     DistKind = "zipf"
	Hotspot     DistKind = "hotspot"
	Exponential DistKind = "exp"
)

// Distributions lists all supported kinds in the paper's order.
func Distributions() []DistKind {
	return []DistKind{Uniform, Zipfian, Hotspot, Exponential}
}

// Dist draws object indices in [0, n). Next draws from the rng it is
// handed, so one Dist may be shared by concurrent generators as long as
// each goroutine passes its own *rand.Rand — and repeating a seed
// reproduces the sequence regardless of what other goroutines drew.
type Dist interface {
	Next(rng *rand.Rand) int
}

// NewDist constructs a distribution over n objects.
func NewDist(kind DistKind, n int, rng *rand.Rand) Dist {
	if n <= 0 {
		panic("workload: distribution over zero objects")
	}
	switch kind {
	case Uniform:
		return uniformDist{n: n}
	case Zipfian:
		// s=1.1, v=1 mirrors common benchmark skew (YCSB-style).
		return &zipfDist{n: n}
	case Hotspot:
		// 80% of accesses hit the hottest 20% of objects.
		hot := n / 5
		if hot == 0 {
			hot = 1
		}
		return hotspotDist{n: n, hot: hot, frac: 0.8}
	case Exponential:
		return expDist{n: n, lambda: 8.0 / float64(n)}
	default:
		panic(fmt.Sprintf("workload: unknown distribution %q", kind))
	}
}

type uniformDist struct{ n int }

func (d uniformDist) Next(rng *rand.Rand) int { return rng.Intn(d.n) }

// zipfDist draws Zipf(s=1.1, v=1) indices. rand.Zipf binds the *rand.Rand
// it was built over, so a single shared Zipf would (a) ignore the rng the
// caller passed to Next — breaking seed reproducibility — and (b) race
// when generators run concurrently. Instead the Zipf source is
// per-*rand.Rand, built lazily and cached: rand.NewZipf precomputes only
// seed-independent constants, so a cached source draws exactly the same
// sequence from its rng as a freshly built one.
type zipfDist struct {
	n int
	// z caches *rand.Zipf per rng. sync.Map fits the access pattern
	// exactly: each goroutine writes its entry once and then only reads
	// it, so the steady-state draw path is lock-free. Entries live as
	// long as the Dist — callers feeding a long-lived Dist unboundedly
	// many transient rngs should construct a Dist per generator instead.
	z sync.Map // *rand.Rand -> *rand.Zipf
}

func (d *zipfDist) Next(rng *rand.Rand) int {
	// One object: every draw is index 0. Answering directly also keeps
	// uint64(n-1) == 0 out of rand.NewZipf, whose sampling degenerates at
	// an inclusive maximum of zero. (n <= 0 is rejected by NewDist.)
	if d.n == 1 {
		return 0
	}
	v, ok := d.z.Load(rng)
	if !ok {
		// Two goroutines never race on one rng (an rng is not safe for
		// concurrent use anyway), so this store has no real contention.
		v, _ = d.z.LoadOrStore(rng, rand.NewZipf(rng, 1.1, 1, uint64(d.n-1)))
	}
	// Draw outside any lock: each goroutine owns its rng and therefore
	// its cached Zipf.
	return int(v.(*rand.Zipf).Uint64())
}

type hotspotDist struct {
	n, hot int
	frac   float64
}

func (d hotspotDist) Next(rng *rand.Rand) int {
	if rng.Float64() < d.frac {
		return rng.Intn(d.hot)
	}
	if d.hot >= d.n {
		return rng.Intn(d.n)
	}
	return d.hot + rng.Intn(d.n-d.hot)
}

type expDist struct {
	n      int
	lambda float64
}

func (d expDist) Next(rng *rand.Rand) int {
	for {
		x := int(rng.ExpFloat64() / d.lambda)
		if x < d.n {
			return x
		}
	}
}
