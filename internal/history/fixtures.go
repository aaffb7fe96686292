package history

// Fixture is one of the 14 anomaly histories of Figure 5 / Table I,
// together with the verdict each strong isolation checker must reach on
// it. Every anomaly violates SER (and therefore SSER); WriteSkew is the
// only one admitted by SI. PreCheck marks anomalies that the MTC pipeline
// rejects before dependency-graph construction (Figure 5a-5g).
type Fixture struct {
	Name      string
	H         *History
	PreCheck  bool // caught by CheckInternalIndexed
	AnomalyAt AnomalyKind
	// Expected checker verdicts (true = the history VIOLATES the level),
	// covering the full lattice RC < RA < CAUSAL < SI < SER < SSER. The
	// verdicts are monotone: a violated rung implies every stronger rung
	// is violated too.
	ViolatesSSER   bool
	ViolatesSER    bool
	ViolatesSI     bool
	ViolatesCausal bool
	ViolatesRA     bool
	ViolatesRC     bool
}

// Fixtures returns fresh copies of the 14 anomaly histories of Figure 5
// plus one minimal violating history for each remaining lattice rung
// (G1cCycle for RC, RealTimeViolation for SSER).
// Values follow the figure where possible; where the figure's values would
// collide with the initial transaction's value 0, distinct values are
// substituted without changing the dependency structure.
func Fixtures() []Fixture {
	return []Fixture{
		thinAirRead(),
		abortedRead(),
		futureRead(),
		notMyLastWrite(),
		notMyOwnWrite(),
		intermediateRead(),
		nonRepeatableReads(),
		sessionGuaranteeViolation(),
		nonMonotonicRead(),
		fracturedRead(),
		causalityViolation(),
		longFork(),
		lostUpdate(),
		writeSkew(),
		g1cCycle(),
		realTimeViolation(),
	}
}

// FixtureByName returns the named fixture, or nil.
func FixtureByName(name string) *Fixture {
	for _, f := range Fixtures() {
		if f.Name == name {
			f := f
			return &f
		}
	}
	return nil
}

func pre(name string, kind AnomalyKind, h *History) Fixture {
	// Pre-check anomalies void the axioms of every rung at once.
	return Fixture{Name: name, H: h, PreCheck: true, AnomalyAt: kind,
		ViolatesSSER: true, ViolatesSER: true, ViolatesSI: true,
		ViolatesCausal: true, ViolatesRA: true, ViolatesRC: true}
}

// dep builds a dependency-level fixture: every such history violates
// SER/SSER; the weak verdicts name the exact rung where it starts
// failing (the arguments are ordered strongest-to-weakest and must be
// monotone).
func dep(name string, h *History, violatesSI, violatesCausal, violatesRA, violatesRC bool) Fixture {
	return Fixture{Name: name, H: h,
		ViolatesSSER: true, ViolatesSER: true, ViolatesSI: violatesSI,
		ViolatesCausal: violatesCausal, ViolatesRA: violatesRA, ViolatesRC: violatesRC}
}

// Figure 5a: T reads a value that no transaction ever wrote.
func thinAirRead() Fixture {
	b := NewBuilder("x")
	b.Txn(0, R("x", 99))
	return pre("ThinAirRead", ThinAirRead, b.Build())
}

// Figure 5b: T reads the value written by an aborted transaction.
func abortedRead() Fixture {
	b := NewBuilder("x")
	b.AbortedTxn(0, R("x", 0), W("x", 1))
	b.Txn(1, R("x", 1))
	return pre("AbortedRead", AbortedRead, b.Build())
}

// Figure 5c: T reads from a write that occurs later in the same
// transaction: R(x,5) -> W(x,5).
func futureRead() Fixture {
	b := NewBuilder()
	b.Txn(0, R("x", 5), W("x", 5))
	return pre("FutureRead", FutureRead, b.Build())
}

// Figure 5d: R(x,0) -> W(x,1) -> W(x,2) -> R(x,1): the final read returns
// the transaction's own earlier, overwritten write.
func notMyLastWrite() Fixture {
	b := NewBuilder("x")
	b.Txn(0, R("x", 0), W("x", 1), W("x", 2), R("x", 1))
	return pre("NotMyLastWrite", NotMyLastWrite, b.Build())
}

// Figure 5e: T writes x but then reads T”s value instead of its own.
func notMyOwnWrite() Fixture {
	b := NewBuilder("x")
	b.Txn(0, R("x", 0), W("x", 1))            // T'
	b.Txn(1, R("x", 0), W("x", 2), R("x", 1)) // T reads T''s 1 after writing 2
	return pre("NotMyOwnWrite", NotMyOwnWrite, b.Build())
}

// Figure 5f: T reads a value that the writer later overwrote (G1b).
func intermediateRead() Fixture {
	b := NewBuilder("x")
	b.Txn(0, R("x", 0), W("x", 1), W("x", 2)) // T'
	b.Txn(1, R("x", 1))                       // T reads the intermediate 1
	return pre("IntermediateRead", IntermediateRead, b.Build())
}

// Figure 5g: T reads x twice and receives different values.
func nonRepeatableReads() Fixture {
	b := NewBuilder("x")
	b.Txn(0, R("x", 0), W("x", 1)) // T1
	b.Txn(1, R("x", 0), W("x", 2)) // T2 (diverging writes make values available)
	b.Txn(2, R("x", 1), R("x", 2)) // T reads 1 then 2
	return pre("NonRepeatableReads", NonRepeatableReads, b.Build())
}

// Figure 5h: T3 misses the effect of the preceding transaction T2 in the
// same session: cycle T2 -SO-> T3 -RW(x)-> T2.
func sessionGuaranteeViolation() Fixture {
	b := NewBuilder("x")
	b.Txn(0, R("x", 0), W("x", 1)) // T1
	b.Txn(1, R("x", 1), W("x", 2)) // T2
	b.Txn(1, R("x", 1))            // T3, same session as T2, misses T2
	// T3's stale read breaks read-your-writes and causality, but the
	// write/read dependencies alone are acyclic and nothing is fractured.
	return dep("SessionGuaranteeViolation", b.Build(), true, true, false, false)
}

// Figure 5i: T3 reads y from T2 and then x from T1, although T2 overwrote
// T1 on x: cycle T2 -WR(y)-> T3 -RW(x)-> T2.
func nonMonotonicRead() Fixture {
	b := NewBuilder("x", "y")
	b.Txn(0, R("x", 0), W("x", 1))                       // T1
	b.Txn(1, R("x", 1), W("x", 2), R("y", 0), W("y", 3)) // T2
	b.Txn(2, R("y", 3), R("x", 1))                       // T3
	// T3 observes T2's y but a strictly older x than T2's: a fractured
	// view of T2's update, so the history already fails Read Atomic.
	return dep("NonMonotonicRead", b.Build(), true, true, true, false)
}

// Figure 5j: T1 updates both x and y but T2 observes only the x update:
// cycle T1 -WR(x)-> T2 -RW(y)-> T1.
func fracturedRead() Fixture {
	b := NewBuilder("x", "y")
	b.Txn(0, R("x", 0), W("x", 1), R("y", 0), W("y", 2)) // T1
	b.Txn(1, R("x", 1), R("y", 0))                       // T2
	// The defining Read Atomic violation: only RC survives.
	return dep("FracturedRead", b.Build(), true, true, true, false)
}

// Figure 5k: T3 sees T2's effect on y but misses T1's effect on x, which
// T2 saw: cycle T2 -WR(y)-> T3 -RW(x)-> T1 -WR(x)-> T2 ... compressed to
// the SI-forbidden shape with a single RW edge.
func causalityViolation() Fixture {
	b := NewBuilder("x", "y")
	b.Txn(0, R("x", 0), W("x", 1))            // T1
	b.Txn(1, R("x", 1), R("y", 0), W("y", 2)) // T2 sees T1
	b.Txn(2, R("y", 2), R("x", 0))            // T3 sees T2 but not T1
	// T3's view is atomic per writer (it sees T2's whole update and none
	// of T1's y... T1 wrote only x), so RA holds; causality does not.
	return dep("CausalityViolation", b.Build(), true, true, false, false)
}

// Figure 5l: concurrent T1, T2 write x and y; T3 observes only T1, T4
// observes only T2.
func longFork() Fixture {
	b := NewBuilder("x", "y")
	b.Txn(0, R("x", 0), W("x", 1)) // T1
	b.Txn(1, R("y", 0), W("y", 2)) // T2
	b.Txn(2, R("x", 1), R("y", 0)) // T3
	b.Txn(3, R("x", 0), R("y", 2)) // T4
	// The two forks are causally incomparable: every weak rung passes,
	// the history first fails at SI.
	return dep("LongFork", b.Build(), true, false, false, false)
}

// Figure 5m: T1 and T2 both read x from ⊥T and write different values: the
// DIVERGENCE pattern; one update is lost.
func lostUpdate() Fixture {
	b := NewBuilder("x")
	b.Txn(0, R("x", 0), W("x", 1)) // T1
	b.Txn(1, R("x", 0), W("x", 2)) // T2
	b.Txn(2, R("x", 2))            // T3 observes T2
	// Divergence is rejected exactly at SI; the concurrent updates are
	// causally incomparable, so the weak rungs all pass.
	return dep("LostUpdate", b.Build(), true, false, false, false)
}

// Figure 5n: T1 and T2 read both x and y and then write x and y
// respectively: admitted by SI, rejected by SER.
func writeSkew() Fixture {
	b := NewBuilder("x", "y")
	b.Txn(0, R("x", 0), R("y", 0), W("x", 1)) // T1
	b.Txn(1, R("x", 0), R("y", 0), W("y", 2)) // T2
	return dep("WriteSkew", b.Build(), false, false, false, false)
}

// G1c: T1 and T2 each read the other's write, closing a cycle of pure
// write/read dependencies — the one dependency anomaly Read Committed
// itself forbids. Every rung of the lattice is violated.
func g1cCycle() Fixture {
	b := NewBuilder("x", "y")
	b.Txn(0, R("x", 0), W("x", 1), R("y", 2)) // T1 reads T2's y
	b.Txn(1, R("y", 0), W("y", 2), R("x", 1)) // T2 reads T1's x
	return dep("G1cCycle", b.Build(), true, true, true, true)
}

// A serializable history that violates only real-time order: T1 reads
// the value that T2 — which starts after T1 finishes — later writes.
// Only SSER rejects it; its strongest satisfied level is SER.
func realTimeViolation() Fixture {
	b := NewBuilder("x")
	b.TimedTxn(0, 10, 20, R("x", 1))            // T1 finishes before T2 starts
	b.TimedTxn(1, 30, 40, R("x", 0), W("x", 1)) // T2
	return Fixture{Name: "RealTimeViolation", H: b.Build(), ViolatesSSER: true}
}

// SerialHistory returns a small, obviously correct history: n transactions
// executed one after another in a single session, each incrementing a
// round-robin key. It satisfies every isolation level and is used as a
// positive control in tests.
func SerialHistory(n int, keys ...Key) *History {
	if len(keys) == 0 {
		keys = []Key{"x"}
	}
	b := NewBuilder(keys...)
	last := make(map[Key]Value)
	var ts int64 = 10
	for i := 0; i < n; i++ {
		k := keys[i%len(keys)]
		v := last[k]
		nv := Value(1000 + i)
		b.TimedTxn(0, ts, ts+5, R(k, v), W(k, nv))
		last[k] = nv
		ts += 10
	}
	return b.Build()
}

// BlindWriteHistory returns a history whose every transaction blindly
// writes one fresh value to a single key, sessions×perSession in all.
// With no reads, writer pairs cannot be coalesced into RMW chains, so
// the constraint-solving baselines (Cobra, PolySI) face a quadratic
// number of undetermined write orders — deliberately expensive for them
// while remaining a valid, serializable history. Used as a negative
// control for deadline/cancellation tests.
func BlindWriteHistory(sessions, perSession int) *History {
	b := NewBuilder()
	v := Value(1)
	for s := 0; s < sessions; s++ {
		for i := 0; i < perSession; i++ {
			b.Txn(s, W("x", v))
			v++
		}
	}
	return b.Build()
}
