// Package corpus generates the histories the differential and oracle
// suites replay: the shared randomized corpus (Differential), drawn from
// the workload → store → runner pipeline, and hand-shaped edge cases no
// workload produces (Shapes) — per-key values that descend or arrive
// shuffled, duplicate and intermediate writes, a three-way DIVERGENCE,
// aborted writers, pre-check faults and a 4 000-key init transaction.
// Only tests import it; the committed MTCB corpus under
// internal/checker/testdata/corpus was written from Shapes.
package corpus

import (
	"fmt"
	"math/rand"

	"mtc/internal/faults"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

// Shape sizes one suite's draw from the shared differential corpus.
type Shape struct {
	Seeds    int64 // seeds 1..Seeds
	Sessions int
	Objects  int  // keys of the clean MT plan
	Tenants  bool // split every plan into int(seed%4)+1 key-disjoint tenants
	Bugs     int  // fault-injected histories per seed
}

// Differential generates the randomized corpus the differential suites
// replay and hands every history to check with a tag naming its origin.
// Per seed: a clean MT history from each strong store mode; a
// general-transaction history, whose blind writes leave undetermined
// writer pairs (real polygraph constraints, incomparable versions); and
// shape.Bugs fault-injected MT histories cycling through the Table-II
// catalogue on few, hot objects, so violating verdicts — anomalies,
// cycles, divergence — are compared too. It returns the number of
// histories generated.
func Differential(shape Shape, check func(h *history.History, tag string)) int {
	var bugs []faults.Bug
	for _, b := range faults.Bugs() {
		if !b.LWT {
			bugs = append(bugs, b)
		}
	}
	histories := 0
	run := func(s *kv.Store, w *workload.Workload, tag string) {
		check(runner.Run(s, w, runner.Config{Retries: 2}).H, tag)
		histories++
	}
	for seed := int64(1); seed <= shape.Seeds; seed++ {
		tenants := 0
		if shape.Tenants {
			tenants = int(seed%4) + 1
		}
		w := workload.GenerateMT(workload.MTConfig{
			Sessions: shape.Sessions, Txns: 6, Objects: shape.Objects,
			Dist: workload.Uniform, Seed: seed, ReadOnlyFrac: 0.25,
			Tenants: tenants,
		})
		for _, mode := range []kv.Mode{kv.ModeSerializable, kv.ModeSI} {
			run(kv.NewStore(mode), w, mode.String())
		}
		wg := workload.GenerateGT(workload.GTConfig{
			Sessions: shape.Sessions, Txns: 6, Objects: 3, OpsPerTxn: 3, Seed: seed,
			Tenants: tenants,
		})
		run(kv.NewStore(kv.ModeSerializable), wg, "gt")
		wf := workload.GenerateMT(workload.MTConfig{
			Sessions: shape.Sessions, Txns: 8, Objects: 2,
			Dist: workload.Exponential, Seed: seed, ReadOnlyFrac: 0.25,
			Tenants: tenants,
		})
		for i := 0; i < shape.Bugs; i++ {
			b := bugs[(int(seed)+i)%len(bugs)]
			run(b.NewStore(seed), wf, b.Name)
		}
	}
	return histories
}

// plant names the anomaly generate plants: two extra transactions on two
// keys no other transaction touches, so the verdict at every level is
// known by construction.
type plant int

// The plants.
const (
	clean      plant = iota
	lostUpdate       // two RMWs of one value: violates SI, SER, SSER
	writeSkew        // crossed R+RMW pair: SI ok; violates SER, SSER
	staleRead        // read of a value overwritten before the reader started: violates SSER only
)

// spec sizes one generated history.
type spec struct {
	txns     int // transactions excluding the init transaction
	sessions int
	keys     int // key universe, drawn Zipf(1.1)
	plant    plant
	seed     int64
}

// spacing is the logical time between consecutive commit points.
const spacing = 1000

// generate simulates a strictly serializable store on one goroutine:
// step i commits atomically at jitter+(i+1)*spacing on session
// i % sessions, reading current values and writing fresh ascending
// ones. Start and Finish straddle the commit point by less than half a
// session's period, so sessions overlap each other but never themselves.
// The mix is workload.GenerateMT's: a fifth read-only (R or R+R), the
// rest RMW, R+RMW or RMW+RMW. sessions must be at least 2 and txns
// at least 2*sessions.
func generate(sp spec) *history.History {
	rng := rand.New(rand.NewSource(sp.seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(sp.keys-1))
	names := make([]history.Key, sp.keys)
	for i := range names {
		names[i] = history.Key(fmt.Sprintf("k%d", i))
	}
	fresh := []history.Key{"f.0", "f.1"}
	first := -1
	if sp.plant != clean {
		first = sp.sessions + rng.Intn(sp.txns-sp.sessions-1)
	}
	initOps := make([]history.Op, 0, len(names)+len(fresh))
	for _, k := range append(names, fresh...) {
		initOps = append(initOps, history.W(k, 0))
	}
	h := &history.History{
		Txns:     []history.Txn{{ID: 0, Session: -1, Ops: initOps, Committed: true}},
		Sessions: make([][]int, sp.sessions),
		HasInit:  true,
	}
	cur := make([]history.Value, len(names))
	next := history.Value(1)
	read := func(k int) history.Op { return history.R(names[k], cur[k]) }
	write := func(k int) history.Op {
		cur[k] = next
		next++
		return history.W(names[k], cur[k])
	}
	jitter := int64(sp.sessions) * spacing / 2
	for step := 0; step < sp.txns; step++ {
		sess := step % sp.sessions
		commit := jitter + int64(step+1)*spacing
		t := history.Txn{
			ID: step + 1, Session: sess, Committed: true,
			Start: commit - rng.Int63n(jitter), Finish: commit + rng.Int63n(jitter),
		}
		k1, k2 := int(zipf.Uint64()), int(zipf.Uint64())
		switch {
		case step == first:
			t.Ops, t.Finish = planted(sp.plant, fresh, true, &next), commit
		case step == first+1:
			t.Ops, t.Start = planted(sp.plant, fresh, false, &next), commit
		case rng.Float64() < 0.2:
			if k2 == k1 || rng.Intn(2) == 0 {
				t.Ops = []history.Op{read(k1)}
			} else {
				t.Ops = []history.Op{read(k1), read(k2)}
			}
		default:
			switch shape := rng.Intn(3); {
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
	return h
}

// planted returns the operations of the first or second planted
// transaction; both read the fresh keys' initial value 0.
func planted(p plant, fresh []history.Key, isFirst bool, next *history.Value) []history.Op {
	v := *next
	*next++
	a, b := fresh[0], fresh[1]
	switch {
	case p == lostUpdate:
		return []history.Op{history.R(a, 0), history.W(a, v)}
	case p == writeSkew && isFirst:
		return []history.Op{history.R(b, 0), history.R(a, 0), history.W(a, v)}
	case p == writeSkew:
		return []history.Op{history.R(a, 0), history.R(b, 0), history.W(b, v)}
	case isFirst: // stale read: the overwrite, finishing at its commit point
		return []history.Op{history.R(a, 0), history.W(a, v)}
	default: // stale read: starts after the overwrite finished, still sees 0
		return []history.Op{history.R(a, 0)}
	}
}

// Named is one edge-case history.
type Named struct {
	Name string
	H    *history.History
}

// wideKeys is the init transaction's width in the "wide-init" shape:
// twenty times what the go-bench histories declare.
const wideKeys = 4000

// Shapes returns the edge-case histories built from generate at txns
// transactions and seed: the three plants, a 4 000-key init transaction,
// and clean histories rewritten so that per-key values descend or arrive
// shuffled, a value is written twice within and across transactions, a
// writer leaves intermediate versions that are read and overwritten,
// three transactions overwrite one version, writers abort, and reads
// commit every anomaly the pre-check classifies.
func Shapes(txns int, seed int64) []Named {
	base := func(p plant, keys int) *history.History {
		return generate(spec{txns: txns, sessions: 8, keys: keys, plant: p, seed: seed})
	}
	rng := rand.New(rand.NewSource(seed))
	return []Named{
		{"clean", base(clean, 200)},
		{"lost-update", base(lostUpdate, 200)},
		{"write-skew", base(writeSkew, 200)},
		{"stale-read", base(staleRead, 200)},
		{"wide-init", base(clean, wideKeys)},
		{"descending", mapValues(base(clean, 50), func(v history.Value) history.Value { return -v })},
		{"shuffled", shuffled(base(clean, 50), rng)},
		{"duplicates", duplicates(base(clean, 50), rng)},
		{"intermediate", intermediate(base(clean, 50), rng)},
		{"divergence3", divergence3(base(clean, 50))},
		{"aborted", aborted(base(clean, 50), rng)},
		{"precheck", precheckFaults(base(clean, 50))},
	}
}

// mapValues rewrites every read and written value through f, in place.
func mapValues(h *history.History, f func(history.Value) history.Value) *history.History {
	for i := range h.Txns {
		for j := range h.Txns[i].Ops {
			h.Txns[i].Ops[j].Value = f(h.Txns[i].Ops[j].Value)
		}
	}
	return h
}

// shuffled relabels the non-initial values through a random bijection,
// so each key's versions arrive in no particular value order.
func shuffled(h *history.History, rng *rand.Rand) *history.History {
	top := maxValue(h)
	perm := rng.Perm(int(top))
	return mapValues(h, func(v history.Value) history.Value {
		if v <= 0 {
			return v
		}
		return history.Value(perm[v-1] + 1)
	})
}

// duplicates breaks unique values: every 40th writer repeats its last
// write, and every 55th also writes the pair another transaction wrote.
func duplicates(h *history.History, rng *rand.Rand) *history.History {
	writers := committedWriters(h)
	for i, t := range writers {
		ops := &h.Txns[t].Ops
		if i%40 == 7 {
			*ops = append(*ops, lastWrite(*ops))
		}
		if i%55 == 11 {
			*ops = append(*ops, lastWrite(h.Txns[writers[rng.Intn(len(writers))]].Ops))
		}
	}
	return h
}

// intermediate gives every 30th RMW writer an intermediate version of
// its key — R(k,a) W(k,c) W(k,b) — and appends a reader of c and a
// transaction that reads c and overwrites it, so one (writer, key) has
// readers and overwriters at two versions.
func intermediate(h *history.History, rng *rand.Rand) *history.History {
	a := newAppender(h)
	for i, t := range committedWriters(h) {
		if i%30 != 3 {
			continue
		}
		ops := h.Txns[t].Ops
		last := lastWrite(ops)
		c := a.fresh()
		at := len(ops) - 1
		for ops[at] != last {
			at--
		}
		h.Txns[t].Ops = append(append(append([]history.Op{}, ops[:at]...), history.W(last.Key, c)), ops[at:]...)
		a.add(rng.Intn(len(h.Sessions)), true, history.R(last.Key, c))
		a.add(rng.Intn(len(h.Sessions)), true, history.R(last.Key, c), history.W(last.Key, a.fresh()))
	}
	return h
}

// divergence3 appends two more overwriters of the first version that
// already has one: three transactions read it and update its key.
func divergence3(h *history.History) *history.History {
	a := newAppender(h)
	for _, t := range committedWriters(h) {
		ops := h.Txns[t].Ops
		if ops[0].Kind != history.OpRead || ops[1].Kind != history.OpWrite || ops[1].Key != ops[0].Key {
			continue
		}
		r := ops[0]
		for s := 0; s < 2; s++ {
			a.add(s, true, r, history.W(r.Key, a.fresh()))
		}
		return h
	}
	return h
}

// aborted aborts every 45th writer (its readers now read an aborted
// value) and appends aborted writers: two that write the same fresh
// pair, one that rewrites a committed pair, and a committed reader of
// an aborted-only value.
func aborted(h *history.History, rng *rand.Rand) *history.History {
	writers := committedWriters(h)
	for i, t := range writers {
		if i%45 == 5 {
			h.Txns[t].Committed = false
		}
	}
	a := newAppender(h)
	w := lastWrite(h.Txns[writers[rng.Intn(len(writers))]].Ops)
	f := a.fresh()
	a.add(0, false, history.R(w.Key, w.Value), history.W(w.Key, f))
	a.add(1, false, history.R(w.Key, w.Value), history.W(w.Key, f))
	a.add(2, false, history.R(w.Key, w.Value), history.W(w.Key, w.Value))
	a.add(3, true, history.R(w.Key, f))
	return h
}

// precheckFaults appends one committed transaction per anomaly the
// pre-check classifies: a thin-air read, a future read (whose writer is
// the reader itself), not-my-last-write, not-my-own-write and a
// non-repeatable read.
func precheckFaults(h *history.History) *history.History {
	a := newAppender(h)
	w := lastWrite(h.Txns[committedWriters(h)[0]].Ops)
	k := w.Key
	f1, f2 := a.fresh(), a.fresh()
	a.add(0, true, history.R(k, 1<<40))
	a.add(1, true, history.R(k, f1), history.W(k, f1))
	a.add(2, true, history.W(k, f2), history.W(k, a.fresh()), history.R(k, f2))
	a.add(3, true, history.W(k, a.fresh()), history.R(k, w.Value))
	a.add(4, true, history.R(k, w.Value), history.R(k, 0))
	return h
}

// committedWriters lists the committed non-init transactions that write.
func committedWriters(h *history.History) []int {
	var out []int
	for i := range h.Txns {
		if t := &h.Txns[i]; t.Committed && t.Session >= 0 && lastWrite(t.Ops).Kind == history.OpWrite {
			out = append(out, i)
		}
	}
	return out
}

// lastWrite returns the last write of ops, or a zero read Op when none.
func lastWrite(ops []history.Op) history.Op {
	for i := len(ops) - 1; i >= 0; i-- {
		if ops[i].Kind == history.OpWrite {
			return ops[i]
		}
	}
	return history.Op{}
}

// maxValue returns the largest value h reads or writes.
func maxValue(h *history.History) history.Value {
	var top history.Value
	for i := range h.Txns {
		for _, op := range h.Txns[i].Ops {
			top = max(top, op.Value)
		}
	}
	return top
}

// appender adds transactions after everything in a history, on existing
// sessions and later in real time than any transaction before them.
type appender struct {
	h    *history.History
	now  int64
	next history.Value
}

func newAppender(h *history.History) *appender {
	a := &appender{h: h, next: maxValue(h) + 1}
	for i := range h.Txns {
		a.now = max(a.now, h.Txns[i].Finish)
	}
	return a
}

// fresh returns a value no transaction has read or written.
func (a *appender) fresh() history.Value {
	a.next++
	return a.next - 1
}

func (a *appender) add(sess int, committed bool, ops ...history.Op) {
	id := len(a.h.Txns)
	a.h.Txns = append(a.h.Txns, history.Txn{
		ID: id, Session: sess, Ops: ops, Committed: committed,
		Start: a.now + spacing, Finish: a.now + 2*spacing,
	})
	a.now += 2 * spacing
	a.h.Sessions[sess] = append(a.h.Sessions[sess], id)
}
