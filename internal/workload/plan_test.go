package workload

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"mtc/internal/core"
)

// plansDigest is the FNV-64a digest of every plan in the grid of
// TestGeneratorPlansAreStable. It moves only when a generator draws a
// different plan for some configuration: a refactor must leave it alone.
const plansDigest = 0x2f5ccf93806136c9

// digestPlan folds one plan into h: its key universe, then every
// session's transactions, each op as its kind and key.
func digestPlan(h hash.Hash64, w *Workload) {
	num := func(n int) { h.Write(binary.AppendUvarint(nil, uint64(n))) }
	num(len(w.Keys))
	for _, k := range w.Keys {
		h.Write([]byte(k + "\x00"))
	}
	num(len(w.Sessions))
	for _, sess := range w.Sessions {
		num(len(sess))
		for _, txn := range sess {
			num(len(txn.Ops))
			for _, op := range txn.Ops {
				h.Write([]byte{byte(op.Kind)})
				h.Write([]byte(op.Key + "\x00"))
			}
		}
	}
}

// TestGeneratorPlansAreStable pins every generator's plans over a grid
// of seeds, distributions (the empty default included), object counts,
// tenants, read-only fractions, transaction lengths and lattice levels
// (plus an unknown one) to one committed digest.
func TestGeneratorPlansAreStable(t *testing.T) {
	h := fnv.New64a()
	plans := 0
	add := func(w *Workload) { digestPlan(h, w); plans++ }
	dists := append([]DistKind{""}, Distributions()...)
	levels := append(core.Lattice(), core.Level("bogus"))
	for _, seed := range []int64{0, 1, 7} {
		for _, objects := range []int{1, 2, 3, 20} {
			for _, d := range dists {
				for _, tenants := range []int{0, 1, 3} {
					for _, ro := range []float64{0, 0.25, 1} {
						add(GenerateMT(MTConfig{Sessions: 4, Txns: 6, Objects: objects,
							Dist: d, Seed: seed, ReadOnlyFrac: ro, Tenants: tenants}))
					}
					for _, ops := range []int{1, 2, 5} {
						add(GenerateGT(GTConfig{Sessions: 4, Txns: 6, Objects: objects,
							OpsPerTxn: ops, Dist: d, Seed: seed, Tenants: tenants}))
					}
				}
				for _, maxLen := range []int{1, 4} {
					add(GenerateListAppend(ListAppendConfig{Sessions: 3, Txns: 5,
						Objects: objects, MaxTxnLen: maxLen, Dist: d, Seed: seed}))
					add(GenerateRWRegister(RWRegisterConfig{Sessions: 3, Txns: 5,
						Objects: objects, MaxTxnLen: maxLen, Dist: d, Seed: seed}))
				}
			}
			cfg := TargetedConfig{Sessions: 3, Txns: 8, Objects: objects, Seed: seed}
			add(GenerateTargeted(cfg))
			for _, lvl := range levels {
				add(GenerateLevelTargeted(lvl, cfg))
			}
		}
		for _, violate := range []bool{false, true} {
			for _, lwt := range GenerateLWT(LWTConfig{Sessions: 3, TxnsPerSession: 5,
				ConcurrentFrac: 0.5, Keys: 2, Seed: seed, Violate: violate}) {
				h.Write(binary.AppendVarint(nil, int64(lwt.ID)))
				h.Write([]byte(string(lwt.Key) + "\x00"))
				for _, x := range []int64{int64(lwt.Kind), int64(lwt.Read), int64(lwt.Write), lwt.Start, lwt.Finish} {
					h.Write(binary.AppendVarint(nil, x))
				}
			}
			plans++
		}
	}
	if got := h.Sum64(); got != plansDigest {
		t.Fatalf("%d plans digest to %#x, want %#x: a generator draws a different plan", plans, got, plansDigest)
	}
}
