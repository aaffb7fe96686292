package workload

import (
	"math/rand"

	"mtc/internal/core"
	"mtc/internal/history"
)

// TargetedConfig parameterizes the anomaly-guided MT generator, one of the
// paper's future-work directions (Section VII): instead of drawing MT
// shapes uniformly, sessions repeatedly emit the access patterns that the
// Figure-5 anomalies require, concentrated on a small hot set so the
// racing transactions actually collide.
type TargetedConfig struct {
	Sessions int
	Txns     int // transactions per session
	Objects  int // total objects; the hot set is min(2, Objects)
	Seed     int64
}

// hotPlan is the targeted generators' plan: each transaction flips a
// coin for the order of the two hot keys k0 and k1 (both k0 when
// Objects is 1), then is draw(rng, a, b) with the keys in that order.
func hotPlan(cfg TargetedConfig, draw func(rng *rand.Rand, a, b history.Key) []OpSpec) *Workload {
	if cfg.Sessions <= 0 || cfg.Txns <= 0 || cfg.Objects <= 0 {
		panic("workload: TargetedConfig requires positive parameters")
	}
	rng, _ := source(Uniform, cfg.Objects, cfg.Seed)
	hotA, hotB := KeyName(0), KeyName(min(1, cfg.Objects-1))
	return plan(cfg.Sessions, cfg.Txns, KeyUniverse(cfg.Objects), func(int) []OpSpec {
		if rng.Intn(2) == 0 {
			return draw(rng, hotB, hotA)
		}
		return draw(rng, hotA, hotB)
	})
}

// GenerateTargeted plans an anomaly-guided MT workload. Each transaction
// is drawn from the shapes that the 14 anomalies need:
//
//   - RMW on a hot key            (lost update / divergence races)
//   - R(a) R(b) + W(b)            (write skew halves)
//   - RMW(a) RMW(b)               (fractured read / long fork sources)
//   - R(a) R(b)                   (long fork / causality observers)
//   - R(a)                        (session-guarantee observers)
//
// concentrated on two hot keys, with an occasional uniform cold access to
// keep version chains growing everywhere.
func GenerateTargeted(cfg TargetedConfig) *Workload {
	return hotPlan(cfg, func(rng *rand.Rand, a, b history.Key) []OpSpec {
		switch rng.Intn(6) {
		case 0: // racing RMW on a hot key (lost update)
			return []OpSpec{{SpecRMW, a}}
		case 1: // write-skew half: read both, write one
			return []OpSpec{{SpecRead, a}, {SpecRMW, b}}
		case 2: // double update (fractured-read source)
			if a == b {
				return []OpSpec{{SpecRMW, a}}
			}
			return []OpSpec{{SpecRMW, a}, {SpecRMW, b}}
		case 3: // observer of both hot keys (long fork / causality)
			if a == b {
				return []OpSpec{{SpecRead, a}}
			}
			return []OpSpec{{SpecRead, a}, {SpecRead, b}}
		case 4: // single observer (session guarantees)
			return []OpSpec{{SpecRead, a}}
		default: // cold refresh
			return []OpSpec{{SpecRMW, KeyName(rng.Intn(cfg.Objects))}}
		}
	})
}

// GenerateLevelTargeted plans an MT workload whose transaction mix
// concentrates on the collision shapes that break one lattice rung, for
// hunting a specific per-level fault (see faults.LevelBugs):
//
//   - RC:     dense RMW plus single readers — any read can land on a
//     dirty-aborted write.
//   - RA:     two-key atomic updates plus two-key observers — the
//     observer straddling an update is a fractured read.
//   - CAUSAL: write chains a-then-b per session plus observers reading
//     b-then-a across consecutive transactions — a stale snapshot
//     between the two observations inverts causality.
//   - SI:     racing RMW on one hot key — the lost-update shape.
//   - SER:    write-skew halves R(a)W(b) / R(b)W(a).
//
// Unknown levels fall back to the uniform anomaly mix of
// GenerateTargeted.
func GenerateLevelTargeted(lvl core.Level, cfg TargetedConfig) *Workload {
	if core.LatticeRank(lvl) < 0 {
		return GenerateTargeted(cfg)
	}
	return hotPlan(cfg, func(rng *rand.Rand, a, b history.Key) []OpSpec {
		switch lvl {
		case core.RC:
			if rng.Intn(2) == 0 {
				return []OpSpec{{SpecRMW, a}}
			}
			return []OpSpec{{SpecRead, a}}
		case core.RA:
			if a == b || rng.Intn(2) == 0 {
				return []OpSpec{{SpecRMW, a}, {SpecRMW, b}}
			}
			return []OpSpec{{SpecRead, a}, {SpecRead, b}}
		case core.CAUSAL:
			switch rng.Intn(3) {
			case 0: // chained updates the observers can invert
				return []OpSpec{{SpecRMW, a}}
			case 1:
				return []OpSpec{{SpecRead, a}, {SpecRMW, b}}
			default: // two-key observer, one key per read
				return []OpSpec{{SpecRead, b}, {SpecRead, a}}
			}
		case core.SI:
			return []OpSpec{{SpecRMW, KeyName(0)}}
		default: // SER, SSER
			return []OpSpec{{SpecRead, a}, {SpecRMW, b}}
		}
	})
}
