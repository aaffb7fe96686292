package main

import (
	"fmt"
	"math/rand"

	"mtc/internal/core"
	"mtc/internal/history"
)

// plant names the anomaly planted into a generated history. Every plant
// is two extra transactions on keys no other transaction touches, so
// the verdict at each level is known by construction.
type plant int

const (
	plantNone       plant = iota
	plantLostUpdate       // two RMWs of one value: violates SI, SER, SSER
	plantWriteSkew        // crossed R+RMW pair: SI ok; violates SER, SSER
	plantStaleRead        // read of a value overwritten before the reader started: SI, SER ok; violates SSER
)

func (p plant) String() string {
	return [...]string{"clean", "lost-update", "write-skew", "stale-read"}[p]
}

// strongest is the strongest isolation level a history carrying p
// satisfies — the answer the lattice profiler must give.
func (p plant) strongest() core.Level {
	return [...]core.Level{core.SSER, core.CAUSAL, core.SI, core.SER}[p]
}

// satisfies reports whether a history carrying p satisfies lvl.
func (p plant) satisfies(lvl core.Level) bool {
	return core.LatticeRank(lvl) <= core.LatticeRank(p.strongest())
}

// spec sizes one generated history.
type spec struct {
	txns     int // transactions excluding the init transaction, planted ones included
	sessions int
	keys     int // key universe per tenant, drawn Zipf(1.1)
	tenants  int // key- and session-disjoint groups; session s belongs to tenant s % tenants
	plant    plant
	tail     bool // plant inside the last 1% of the stream instead of anywhere
}

// generated is one history with its known answer.
type generated struct {
	h       *history.History
	plant   plant
	planted []int         // ids of the two planted transactions
	fresh   []history.Key // the keys only they touch
}

// Logical nanoseconds between consecutive commit points.
const commitSpacing = 1000

// generate simulates a strictly serializable store on one goroutine:
// step i commits atomically at time jitter+(i+1)*commitSpacing on session
// i % sessions, reading the current values and writing fresh unique
// ones, so commit order is a valid serialization. Start and Finish
// straddle the commit point by a jitter below half a session's period,
// which makes transactions of different sessions overlap while a
// session never overlaps itself — the history is SSER-valid. Txns are in
// commit order (id = step+1), which is also the order a capture streams
// them.
func generate(rng *rand.Rand, sp spec) generated {
	if sp.tenants < 1 {
		sp.tenants = 1
	}
	if sp.sessions <= sp.tenants || sp.txns < 2*sp.sessions {
		panic(fmt.Sprintf("benchmark: spec %+v: need sessions > tenants and txns >= 2*sessions", sp))
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(sp.keys-1))
	names := make([]history.Key, sp.keys*sp.tenants)
	for i := range names {
		names[i] = history.Key(fmt.Sprintf("k%d", i))
	}
	g := generated{plant: sp.plant}

	// The planted pair sits at steps p and p+tenants: same tenant,
	// different sessions, and (because tenants < sessions) the second
	// one's session predecessor committed before the first — nothing
	// reachable from the first can reach the second, which keeps
	// write skew SI-valid and the stale read SER-valid.
	first, second := -1, -1
	fresh := freshKeys(0) // declared by every init transaction, touched only by a plant
	if sp.plant != plantNone {
		lo, hi := sp.sessions, sp.txns-sp.tenants
		if sp.tail {
			lo = sp.txns - sp.txns/100 - sp.tenants
			if lo < sp.sessions {
				lo = sp.sessions
			}
		}
		first = lo + rng.Intn(hi-lo)
		second = first + sp.tenants
		fresh = freshKeys((first % sp.sessions) % sp.tenants)
		g.fresh = fresh
		g.planted = []int{first + 1, second + 1}
	}

	initOps := make([]history.Op, 0, len(names)+len(fresh))
	for _, k := range append(names, fresh...) {
		initOps = append(initOps, history.W(k, 0))
	}
	h := &history.History{
		Txns:     make([]history.Txn, 1, sp.txns+1),
		Sessions: make([][]int, sp.sessions),
		HasInit:  true,
	}
	h.Txns[0] = history.Txn{ID: 0, Session: -1, Ops: initOps, Committed: true}

	cur := make([]history.Value, len(names))
	next := history.Value(1)
	read := func(k int) history.Op { return history.R(names[k], cur[k]) }
	write := func(k int) history.Op {
		cur[k] = next
		next++
		return history.W(names[k], cur[k])
	}
	jitter := int64(sp.sessions) * commitSpacing / 2
	for step := 0; step < sp.txns; step++ {
		sess := step % sp.sessions
		commit := jitter + int64(step+1)*commitSpacing
		t := history.Txn{
			ID: step + 1, Session: sess, Committed: true,
			Start: commit - rng.Int63n(jitter), Finish: commit + rng.Int63n(jitter),
		}
		switch step {
		case first:
			t.Ops, t.Finish = plantedOps(sp.plant, g.fresh, true, &next), commit
		case second:
			t.Ops, t.Start = plantedOps(sp.plant, g.fresh, false, &next), commit
		default:
			base := (sess % sp.tenants) * sp.keys
			k1 := base + int(zipf.Uint64())
			k2 := base + int(zipf.Uint64())
			for tries := 0; k2 == k1 && tries < 8; tries++ {
				k2 = base + int(zipf.Uint64())
			}
			// The workload.GenerateMT mix: a fifth read-only (R or R+R),
			// the rest RMW, R+RMW or RMW+RMW with equal weight.
			switch shape := rng.Intn(3); {
			case rng.Float64() < 0.2:
				if shape == 0 || k2 == k1 {
					t.Ops = []history.Op{read(k1)}
				} else {
					t.Ops = []history.Op{read(k1), read(k2)}
				}
			case shape == 0 || k2 == k1:
				t.Ops = []history.Op{read(k1), write(k1)}
			case shape == 1:
				t.Ops = []history.Op{read(k1), read(k2), write(k2)}
			default:
				t.Ops = []history.Op{read(k1), write(k1), read(k2), write(k2)}
			}
		}
		h.Txns = append(h.Txns, t)
		h.Sessions[sess] = append(h.Sessions[sess], t.ID)
	}
	g.h = h
	return g
}

// initKeys lists the keys a history's init transaction declares.
func initKeys(h *history.History) []history.Key {
	keys := make([]history.Key, len(h.Txns[0].Ops))
	for i, op := range h.Txns[0].Ops {
		keys[i] = op.Key
	}
	return keys
}

// freshKeys names the two keys reserved for a plant in tenant's
// component.
func freshKeys(tenant int) []history.Key {
	return []history.Key{
		history.Key(fmt.Sprintf("f%d.0", tenant)),
		history.Key(fmt.Sprintf("f%d.1", tenant)),
	}
}

// plantedOps returns the operations of the first or second planted
// transaction. Both read the fresh keys' initial value 0.
func plantedOps(p plant, fresh []history.Key, isFirst bool, next *history.Value) []history.Op {
	v := *next
	*next++
	a, b := fresh[0], fresh[1]
	switch {
	case p == plantLostUpdate:
		return []history.Op{history.R(a, 0), history.W(a, v)}
	case p == plantWriteSkew && isFirst:
		return []history.Op{history.R(b, 0), history.R(a, 0), history.W(a, v)}
	case p == plantWriteSkew:
		return []history.Op{history.R(a, 0), history.R(b, 0), history.W(b, v)}
	case isFirst: // stale read: the overwrite, finishing at its commit point
		return []history.Op{history.R(a, 0), history.W(a, v)}
	default: // stale read: starts after the overwrite finished, still sees 0
		return []history.Op{history.R(a, 0)}
	}
}
