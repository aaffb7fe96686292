package workload

import (
	"math/rand"

	"mtc/internal/history"
)

// plan is every generator's session × transaction loop: sessions in
// order, each transaction of session s drawn as draw(s). A generator is
// its shape draw; the loop's order is the order of its rng calls.
func plan(sessions, txns int, keys []history.Key, draw func(s int) []OpSpec) *Workload {
	w := &Workload{Sessions: make([][]TxnSpec, sessions), Keys: keys}
	for s := range w.Sessions {
		w.Sessions[s] = make([]TxnSpec, txns)
		for i := range w.Sessions[s] {
			w.Sessions[s][i] = TxnSpec{Ops: draw(s)}
		}
	}
	return w
}

// source returns a generator's rng, seeded from seed, and its
// object-access distribution over objects keys ("" is Uniform).
func source(kind DistKind, objects int, seed int64) (*rand.Rand, Dist) {
	if kind == "" {
		kind = Uniform
	}
	rng := rand.New(rand.NewSource(seed + 1))
	return rng, NewDist(kind, objects, rng)
}

// MTConfig parameterizes the mini-transaction workload generator
// (Section V-A1): number of sessions, transactions per session, objects,
// and the object-access distribution.
type MTConfig struct {
	Sessions int
	Txns     int // transactions per session
	Objects  int
	Dist     DistKind
	Seed     int64
	// ReadOnlyFrac is the fraction of MTs with no writes; zero plans
	// none.
	ReadOnlyFrac float64
	// Tenants splits the plan into key-disjoint session groups — the
	// multi-tenant scenario component-sharded verification exploits.
	// Session s belongs to tenant s mod Tenants, and each tenant draws
	// its keys from a private universe of Objects keys (the plan's key
	// space grows to Objects*Tenants). <= 1 keeps the single shared key
	// space and is byte-identical to the pre-Tenants generator.
	Tenants int
}

// GenerateMT plans an MT workload. Each transaction is one of the five MT
// shapes — R, RMW, R+R, R+RMW, RMW+RMW — drawn uniformly after the
// read-only decision, so the plan exercises every anomaly-relevant shape
// (reads, lost-update RMWs, and the read-two-write-one/two shapes needed
// for write skew).
func GenerateMT(cfg MTConfig) *Workload {
	if cfg.Sessions <= 0 || cfg.Txns <= 0 || cfg.Objects <= 0 {
		panic("workload: MTConfig requires positive sessions, txns, objects")
	}
	rng, dist := source(cfg.Dist, cfg.Objects, cfg.Seed)
	tenants := max(cfg.Tenants, 1)
	return plan(cfg.Sessions, cfg.Txns, KeyUniverse(cfg.Objects*tenants), func(s int) []OpSpec {
		base := (s % tenants) * cfg.Objects // tenant key-space offset
		k1 := KeyName(base + dist.Next(rng))
		k2 := KeyName(base + dist.Next(rng))
		for tries := 0; k2 == k1 && cfg.Objects > 1 && tries < 8; tries++ {
			k2 = KeyName(base + dist.Next(rng))
		}
		if rng.Float64() < cfg.ReadOnlyFrac {
			if rng.Intn(2) == 0 || k2 == k1 {
				return []OpSpec{{SpecRead, k1}}
			}
			return []OpSpec{{SpecRead, k1}, {SpecRead, k2}}
		}
		switch shape := rng.Intn(3); {
		case shape == 0 || k2 == k1: // single RMW
			return []OpSpec{{SpecRMW, k1}}
		case shape == 1: // read one, RMW the other (write-skew shape)
			return []OpSpec{{SpecRead, k1}, {SpecRMW, k2}}
		default: // double RMW
			return []OpSpec{{SpecRMW, k1}, {SpecRMW, k2}}
		}
	})
}

// GTConfig parameterizes the Cobra-style general-transaction generator:
// 20% read-only, 40% write-only and 40% RMW transactions, each with
// OpsPerTxn operations (Section V-A1).
type GTConfig struct {
	Sessions  int
	Txns      int // transactions per session
	Objects   int
	OpsPerTxn int
	Dist      DistKind
	Seed      int64
	// Tenants splits the plan into key-disjoint session groups exactly
	// as MTConfig.Tenants does: session s draws its keys from tenant
	// (s mod Tenants)'s private universe of Objects keys.
	Tenants int
}

// GenerateGT plans a GT workload with Cobra's transaction mix.
func GenerateGT(cfg GTConfig) *Workload {
	if cfg.Sessions <= 0 || cfg.Txns <= 0 || cfg.Objects <= 0 || cfg.OpsPerTxn <= 0 {
		panic("workload: GTConfig requires positive parameters")
	}
	rng, dist := source(cfg.Dist, cfg.Objects, cfg.Seed)
	tenants := max(cfg.Tenants, 1)
	return plan(cfg.Sessions, cfg.Txns, KeyUniverse(cfg.Objects*tenants), func(s int) []OpSpec {
		base := (s % tenants) * cfg.Objects // tenant key-space offset
		// RMW: each spec contributes a read and a write.
		kind, n := SpecRMW, max(cfg.OpsPerTxn/2, 1)
		switch p := rng.Float64(); {
		case p < 0.2:
			kind, n = SpecRead, cfg.OpsPerTxn
		case p < 0.6:
			kind, n = SpecWrite, cfg.OpsPerTxn
		}
		ops := make([]OpSpec, n)
		for j := range ops {
			ops[j] = OpSpec{kind, KeyName(base + dist.Next(rng))}
		}
		return ops
	})
}

// ListAppendConfig parameterizes the Elle-style generators: list-append
// and read-write-register.
type ListAppendConfig struct {
	Sessions  int
	Txns      int // transactions per session
	Objects   int
	MaxTxnLen int // maximum operations per transaction
	Dist      DistKind
	Seed      int64
}

// RWRegisterConfig parameterizes the read-write-register workload; its
// fields are ListAppendConfig's.
type RWRegisterConfig = ListAppendConfig

// GenerateListAppend plans a list-append workload: each transaction mixes
// appends and list reads over MaxTxnLen operations (length drawn
// uniformly in [1, MaxTxnLen]).
func GenerateListAppend(cfg ListAppendConfig) *Workload {
	return generateElle(cfg, SpecAppend, SpecReadList)
}

// GenerateRWRegister plans the read-write-register workload: like GT but
// with a maximum transaction length and a 50/50 read/write mix, matching
// the "elle-wr" configuration of Figure 13.
func GenerateRWRegister(cfg RWRegisterConfig) *Workload {
	return generateElle(cfg, SpecRead, SpecWrite)
}

// generateElle plans transactions of 1 to MaxTxnLen operations, each on
// a key from the distribution and of kind heads or tails by a fair coin.
func generateElle(cfg ListAppendConfig, heads, tails SpecKind) *Workload {
	if cfg.Sessions <= 0 || cfg.Txns <= 0 || cfg.Objects <= 0 || cfg.MaxTxnLen <= 0 {
		panic("workload: ListAppendConfig requires positive parameters")
	}
	rng, dist := source(cfg.Dist, cfg.Objects, cfg.Seed)
	return plan(cfg.Sessions, cfg.Txns, KeyUniverse(cfg.Objects), func(int) []OpSpec {
		ops := make([]OpSpec, 1+rng.Intn(cfg.MaxTxnLen))
		for j := range ops {
			ops[j] = OpSpec{tails, KeyName(dist.Next(rng))}
			if rng.Intn(2) == 0 {
				ops[j].Kind = heads
			}
		}
		return ops
	})
}
