// Package faults catalogues the production isolation bugs of Table II as
// reproducible fault-injection presets over the kv substrate. Each Bug
// names the database release the paper tested, the isolation level that
// release claimed, the anomaly the bug produces, and the kv.Faults
// configuration that reintroduces the behaviour. The bench harness and
// the bughunt example iterate this catalogue to regenerate Table II and
// Figures 12/18.
package faults

import (
	"mtc/internal/core"
	"mtc/internal/kv"
)

// Bug is one reproducible production bug.
type Bug struct {
	// Name identifies the database release, e.g. "mariadb-galera-10.7.3".
	Name string
	// Anomaly is the data anomaly the bug produces (Table II column 2).
	Anomaly string
	// Claimed is the isolation level the release advertised and violates.
	Claimed core.Level
	// Mode is the concurrency-control mode of the substrate standing in
	// for the release.
	Mode kv.Mode
	// Faults is the injection preset.
	Faults kv.Faults
	// LWT marks the Cassandra-style bug exercised through lightweight
	// transactions rather than general transactions.
	LWT bool
	// Report references the public bug report the paper cites.
	Report string
}

// Bugs returns the six rediscovered bugs of Table II.
func Bugs() []Bug {
	return []Bug{
		{
			Name:    "mariadb-galera-10.7.3",
			Anomaly: "LostUpdate",
			Claimed: core.SI,
			Mode:    kv.ModeSI,
			Faults:  kv.Faults{LostUpdate: 0.4},
			Report:  "github.com/codership/galera issue #609",
		},
		{
			Name:    "mongodb-4.2.6",
			Anomaly: "AbortedRead",
			Claimed: core.SI,
			Mode:    kv.ModeSI,
			Faults:  kv.Faults{DirtyAbort: 0.2},
			Report:  "jepsen.io/analyses/mongodb-4.2.6",
		},
		{
			Name:    "dgraph-1.1.1",
			Anomaly: "CausalityViolation",
			Claimed: core.SI,
			Mode:    kv.ModeSI,
			Faults:  kv.Faults{StaleSnapshot: 0.3},
			Report:  "jepsen.io/analyses/dgraph-1.1.1",
		},
		{
			Name:    "postgresql-12.3",
			Anomaly: "WriteSkew",
			Claimed: core.SER,
			Mode:    kv.ModeSerializable,
			Faults:  kv.Faults{WriteSkew: 0.5},
			Report:  "jepsen.io/analyses/postgresql-12.3",
		},
		{
			Name:    "postgresql-11.8",
			Anomaly: "LongFork",
			Claimed: core.SER,
			Mode:    kv.ModeSerializable,
			Faults:  kv.Faults{LongFork: 0.3},
			Report:  "postgresql commit 5940ffb2 / jepsen postgresql-12.3 analysis",
		},
		{
			Name:    "cassandra-2.0.1",
			Anomaly: "AbortedRead",
			Claimed: core.SSER,
			Mode:    kv.ModeSI,
			Faults:  kv.Faults{CASFailApply: 0.3},
			LWT:     true,
			Report:  "aphyr.com/posts/294-call-me-maybe-cassandra",
		},
	}
}

// LevelBug pairs one isolation-lattice rung with the fault preset that
// breaks exactly that rung: histories generated against the preset's
// store satisfy every level strictly below Breaks and violate Breaks
// (and, by lattice monotonicity, everything above it). The differential
// suite uses this catalogue to check that the levels profiler localises
// each injected anomaly to its rung.
type LevelBug struct {
	// Breaks is the weakest lattice level the fault violates.
	Breaks core.Level
	// Anomaly names the witness the profiler should surface at Breaks.
	Anomaly string
	// Mode is the substrate's concurrency-control mode.
	Mode kv.Mode
	// Faults is the injection preset.
	Faults kv.Faults
}

// LevelBugs returns one fault preset per breakable lattice rung,
// weakest first. SSER has no entry: real-time violations need a fault
// that reorders commit timestamps, which the substrate applies
// synchronously (the RealTimeViolation fixture covers that rung).
func LevelBugs() []LevelBug {
	return []LevelBug{
		// Dirty aborts install the writes and then abort: readers observe
		// an uncommitted value, which already breaks read committed.
		{Breaks: core.RC, Anomaly: "AbortedRead", Mode: kv.ModeSI, Faults: kv.Faults{DirtyAbort: 0.25}},
		// Per-key stale reads split one transaction's view of a two-key
		// atomic update: the halves are fractured, breaking read atomicity
		// while each individual read still observes committed data.
		{Breaks: core.RA, Anomaly: "FracturedRead", Mode: kv.ModeSI, Faults: kv.Faults{LongFork: 0.3}},
		// A whole-transaction stale snapshot is internally atomic but can
		// contradict what the session already observed: causality breaks
		// while reads stay committed and atomic.
		{Breaks: core.CAUSAL, Anomaly: "CausalityViolation", Mode: kv.ModeSI, Faults: kv.Faults{StaleSnapshot: 0.3}},
		// Skipping first-committer-wins lets two updates of the same
		// version both commit: divergent version chains, the SI anomaly.
		{Breaks: core.SI, Anomaly: "LostUpdate", Mode: kv.ModeSI, Faults: kv.Faults{LostUpdate: 0.4}},
		// Skipping read-set validation admits write skew: snapshots stay
		// consistent (SI holds) but no serial order exists.
		{Breaks: core.SER, Anomaly: "WriteSkew", Mode: kv.ModeSerializable, Faults: kv.Faults{WriteSkew: 0.5}},
	}
}

// NewStore builds a fresh faulty store for the level bug with the given
// PRNG seed.
func (lb LevelBug) NewStore(seed int64) *kv.Store {
	f := lb.Faults
	f.Seed = seed
	return kv.NewFaultyStore(lb.Mode, f)
}

// BugByName returns the named bug preset, or nil.
func BugByName(name string) *Bug {
	for _, b := range Bugs() {
		if b.Name == name {
			b := b
			return &b
		}
	}
	return nil
}

// NewStore builds a fresh faulty store for the bug with the given PRNG
// seed.
func (b Bug) NewStore(seed int64) *kv.Store {
	f := b.Faults
	f.Seed = seed
	return kv.NewFaultyStore(b.Mode, f)
}
