package core

import (
	"fmt"

	"mtc/internal/graph"
	"mtc/internal/history"
)

// Incremental verifies SER or SI online, transaction by transaction: it
// maintains the MT dependency graph of Algorithm 1 under an online
// topological order (graph.Online, Pearce–Kelly), so a violation is
// detected at the first offending commit instead of after the run. The
// nearly-unique-graph property of MT histories (Theorems 1 and 2) keeps
// every per-commit update local: each committed transaction contributes
// O(1) dependency edges, and edges that respect commit order never
// disturb the maintained order, so the amortized cost per commit is
// near-constant and the total matches the batch checker's O(n).
//
// Verdict parity with the batch checkers is exact: after every
// transaction of a history has been fed (in session order within each
// session), Finalize reports OK if and only if CheckCtx at SER / SI does.
// Reads whose writer has not yet been observed are parked and resolved
// when the writer commits — or classified as AbortedRead / ThinAirRead at
// Finalize, exactly as the batch pre-check would.
//
// An Incremental is not safe for concurrent use; callers serialise Add
// (internal/runner.RunStream funnels session goroutines through a
// channel).
//
// Long-lived streams need not retain the whole history: Compact
// collapses the settled prefix of the dependency graph into summary
// edges and frees the per-transaction state behind it, bounding memory
// by the live window instead of the stream length. Node identifiers are
// therefore internal: every map below is keyed by the online graph's
// node ids, and ext translates them back to external stream positions
// (the arrival index the caller observes) when a verdict is built.
type Incremental struct {
	lvl Level
	vio *Result

	n     int // transactions added, including aborted and init
	edges int // dependency edges, mirroring the batch graph's NumEdges

	topo *graph.Online
	ext  []int // internal node id -> external stream position

	initID        int
	lastInSession map[int]int

	writers     map[history.Key]map[history.Value]int // committed writer index
	abortedW    map[history.Key]map[history.Value]int
	finalWrites map[int]writeSet // committed txn -> final writes, key-sorted

	pending     map[history.Op][]int // unresolved first external reads -> reader IDs
	readers     map[incWK][]int      // (writer, key) -> readers of the writer's value
	overwriters map[incWK][]int      // (writer, key) -> RMW overwriters of that value

	// Compaction bookkeeping: the latest committed writer per key (its
	// values are the ones a fresh read of the key's current state
	// observes, so its slot must survive every compaction), the stream
	// position at which each slot was last referenced, and cumulative
	// compaction stats.
	latestWriter  map[history.Key]int
	slotRef       map[incWK]int
	compactTxns   int
	compactEpoch  int
	lastCompactAt int // NumTxns at the last MaybeCompact-triggered compaction

	// Session-staleness horizon (live streams only; see ExpectSession).
	// A transaction in flight on session s started after s's previous
	// record was published, so it can only read values that were still
	// each key's latest at s's last ingested position. Compact therefore
	// pins every slot dethroned at or after the minimum such position
	// across active sessions, making windowed verdicts of clean stores
	// exact under any scheduling instead of contingent on the window
	// outrunning the stream's commit-to-ingest skew.
	activeSessions map[int]bool  // sessions still publishing
	lastSeen       map[int]int   // session -> NumTxns at its last record
	dethroned      map[incWK]int // slot -> NumTxns when it stopped being latest

	// SI-only state: the online order tracks the composed graph
	// (SO ∪ WR ∪ WW) ; RW?, so base and RW adjacency is kept separately
	// and every composed edge remembers its constituents for reporting.
	baseIn  map[int][]graph.Edge
	rwOut   map[int][]graph.Edge
	witness map[composedKey][]graph.Edge
}

// NewIncremental returns an online checker for lvl, which must be SER or
// SI (SSER needs the real-time order, which is inherently a batch
// construction; use CheckCtx).
func NewIncremental(lvl Level) *Incremental {
	switch lvl {
	case SER, SI:
	default:
		panic(fmt.Sprintf("core: incremental checker supports SER and SI, not %q", lvl))
	}
	return &Incremental{
		lvl:            lvl,
		topo:           graph.NewOnline(),
		initID:         -1,
		lastInSession:  make(map[int]int),
		writers:        make(map[history.Key]map[history.Value]int),
		abortedW:       make(map[history.Key]map[history.Value]int),
		finalWrites:    make(map[int]writeSet),
		pending:        make(map[history.Op][]int),
		readers:        make(map[incWK][]int),
		overwriters:    make(map[incWK][]int),
		latestWriter:   make(map[history.Key]int),
		slotRef:        make(map[incWK]int),
		activeSessions: make(map[int]bool),
		lastSeen:       make(map[int]int),
		dethroned:      make(map[incWK]int),
		baseIn:         make(map[int][]graph.Edge),
		rwOut:          make(map[int][]graph.Edge),
		witness:        make(map[composedKey][]graph.Edge),
	}
}

// Level returns the level being checked.
func (inc *Incremental) Level() Level { return inc.lvl }

// NumTxns returns the number of transactions added so far.
func (inc *Incremental) NumTxns() int { return inc.n }

// NumEdges returns the number of dependency edges derived so far.
func (inc *Incremental) NumEdges() int { return inc.edges }

// Violation returns the verdict of the first detected violation, or nil
// while the prefix fed so far is consistent.
func (inc *Incremental) Violation() *Result { return inc.vio }

// LiveNodes returns the number of transactions currently materialised in
// the dependency graph: everything fed so far minus what Compact has
// collapsed. A windowed stream keeps this bounded by the window plus the
// retained boundary, independent of NumTxns.
func (inc *Incremental) LiveNodes() int { return inc.topo.Len() }

// CompactedTxns returns how many transactions Compact has collapsed so
// far; CompactedEpochs how many compactions have taken effect.
func (inc *Incremental) CompactedTxns() int   { return inc.compactTxns }
func (inc *Incremental) CompactedEpochs() int { return inc.compactEpoch }

// extOf translates an internal node id to its external stream position.
func (inc *Incremental) extOf(i int) int {
	if i >= 0 && i < len(inc.ext) {
		return inc.ext[i]
	}
	return i
}

// incWK indexes the reader/overwriter groups by (writer, key).
type incWK struct {
	w int
	k history.Key
}

// writeSet is a transaction's final-write footprint as a key-sorted
// slice: the allocation-light replacement for the per-Add
// map[Key]Value (one backing array instead of a hash table per
// transaction). It is immutable once built, so Compact can remap it by
// reference.
type writeSet []struct {
	k history.Key
	v history.Value
}

// get returns the final value written to k, if any.
func (ws writeSet) get(k history.Key) (history.Value, bool) {
	lo, hi := 0, len(ws)
	for lo < hi {
		mid := (lo + hi) / 2
		if ws[mid].k < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ws) && ws[lo].k == k {
		return ws[lo].v, true
	}
	return 0, false
}

// has reports whether the set writes k.
func (ws writeSet) has(k history.Key) bool {
	_, ok := ws.get(k)
	return ok
}

// makeWriteSet collects the final write per key of ops into a sorted
// writeSet. Transactions write at most a couple of keys (only ⊥T is
// wide), so the last-wins dedup and insertion sort stay linear-ish
// without any hashing.
func makeWriteSet(ops []history.Op) writeSet {
	var ws writeSet
	for _, op := range ops {
		if op.Kind != history.OpWrite {
			continue
		}
		found := false
		for i := range ws {
			if ws[i].k == op.Key {
				ws[i].v = op.Value // last write wins
				found = true
				break
			}
		}
		if !found {
			ws = append(ws, struct {
				k history.Key
				v history.Value
			}{op.Key, op.Value})
		}
	}
	for i := 1; i < len(ws); i++ {
		e := ws[i]
		j := i - 1
		for j >= 0 && ws[j].k > e.k {
			ws[j+1] = ws[j]
			j--
		}
		ws[j+1] = e
	}
	return ws
}

// ExpectSession declares that session s is live and will keep
// publishing transactions. While any expected session remains active,
// Compact pins every writer slot whose value was still its key's
// latest at the session's last ingested record — the values the
// session's in-flight transaction may legitimately read — so a
// windowed live stream never mis-parks a read merely because its
// record arrived late. Call it once per session before the stream
// starts (drivers replaying a complete history need not bother: they
// pin future references explicitly instead). Memory stays bounded as
// long as every expected session keeps publishing or is retired with
// EndSession; a session that stalls forever stalls the horizon with
// it, which is inherent — its in-flight reads stay unresolved.
func (inc *Incremental) ExpectSession(s int) {
	inc.activeSessions[s] = true
	if _, ok := inc.lastSeen[s]; !ok {
		inc.lastSeen[s] = 0
	}
}

// EndSession declares that session s has published its last record,
// releasing its hold on the staleness horizon.
func (inc *Incremental) EndSession(s int) {
	delete(inc.activeSessions, s)
}

// stalenessHorizon returns the minimum last-ingested position across
// active sessions, and whether horizon tracking is on at all.
func (inc *Incremental) stalenessHorizon() (int, bool) {
	if len(inc.activeSessions) == 0 {
		return 0, false
	}
	h := int(^uint(0) >> 1)
	//mtc:nondeterministic-ok minimum fold; min is commutative
	for s := range inc.activeSessions {
		if p := inc.lastSeen[s]; p < h {
			h = p
		}
	}
	return h, true
}

// InitTxn installs the initial transaction ⊥T writing value 0 to each
// key, as transaction 0. It must be called before any Add.
func (inc *Incremental) InitTxn(keys ...history.Key) *Result {
	if inc.n != 0 {
		panic("core: InitTxn after Add")
	}
	ops := make([]history.Op, len(keys))
	for i, k := range keys {
		ops[i] = history.Op{Kind: history.OpWrite, Key: k, Value: 0}
	}
	return inc.add(history.Txn{Ops: ops, Committed: true}, true)
}

// Add feeds the next transaction. Its ID is assigned as the number of
// transactions fed before it (matching History.Txns indexing when the
// same stream is also collected into a history); Session, Ops and
// Committed are honoured, timestamps are ignored. Transactions of one
// session must arrive in session order; sessions may interleave freely.
// It returns the violation verdict as soon as one exists (every later
// Add is then a no-op returning the same verdict), nil otherwise.
func (inc *Incremental) Add(t history.Txn) *Result {
	return inc.add(t, false)
}

func (inc *Incremental) add(t history.Txn, isInit bool) *Result {
	if inc.vio != nil {
		return inc.vio
	}
	id := inc.topo.AddNode()
	inc.ext = append(inc.ext, inc.n)
	inc.n++
	if !isInit && inc.activeSessions[t.Session] {
		inc.lastSeen[t.Session] = inc.n
	}
	if !t.Committed {
		for _, op := range t.Ops {
			if op.Kind != history.OpWrite {
				continue
			}
			m := inc.abortedW[op.Key]
			if m == nil {
				m = make(map[history.Value]int)
				inc.abortedW[op.Key] = m
			}
			m[op.Value] = id
		}
		return nil
	}
	if isInit {
		inc.initID = id
	} else {
		prev, ok := inc.lastInSession[t.Session]
		if !ok {
			prev = inc.initID
		}
		if prev >= 0 {
			inc.addDepEdge(graph.Edge{From: prev, To: id, Kind: graph.SO})
		}
		inc.lastInSession[t.Session] = id
	}

	// Register this transaction's committed writes first: its own reads
	// must resolve against them (and be skipped, as in the batch builder),
	// and unique-value violations surface here.
	inc.finalWrites[id] = makeWriteSet(t.Ops)
	for _, op := range t.Ops {
		if op.Kind != history.OpWrite {
			continue
		}
		m := inc.writers[op.Key]
		if m == nil {
			m = make(map[history.Value]int)
			inc.writers[op.Key] = m
		}
		if first, dup := m[op.Value]; dup {
			return inc.fail(Result{Level: inc.lvl, Anomalies: []history.Anomaly{
				{Kind: history.DuplicateWrite, Txn: first, Key: op.Key, Value: op.Value},
			}})
		}
		m[op.Value] = id
		if prev, ok := inc.latestWriter[op.Key]; ok && prev != id {
			inc.dethroned[incWK{prev, op.Key}] = inc.n
		}
		inc.latestWriter[op.Key] = id
	}

	// Writers that readers were parked on may just have arrived.
	for _, op := range t.Ops {
		if op.Kind != history.OpWrite {
			continue
		}
		key := history.Op{Kind: history.OpRead, Key: op.Key, Value: op.Value}
		waiters := inc.pending[key]
		if len(waiters) == 0 {
			continue
		}
		delete(inc.pending, key)
		for _, r := range waiters {
			if vio := inc.resolveRead(r, id, op.Key, op.Value); vio != nil {
				return vio
			}
		}
	}

	if vio := inc.walkOps(id, t.Ops); vio != nil {
		return vio
	}
	return nil
}

// walkOps classifies every operation of committed transaction id in
// program order, replicating history.checkTxnInternal, and derives the
// dependency edges of its first external reads. Like the batch
// pre-check it scans the transaction's own (tiny) operation list
// instead of building per-transaction maps, so the per-commit hot path
// does not allocate for the classification itself.
//
//mtc:hotpath — per-commit classification; allocation here scales with every streamed transaction
func (inc *Incremental) walkOps(id int, ops []history.Op) *Result {
	anomaly := func(kind history.AnomalyKind, op history.Op) *Result {
		return inc.fail(Result{Level: inc.lvl, Anomalies: []history.Anomaly{
			{Kind: kind, Txn: id, Key: op.Key, Value: op.Value},
		}})
	}
	for i, op := range ops {
		if op.Kind != history.OpRead {
			continue
		}
		// Last own write to the key before this read, if any: the INT
		// branches.
		lastV, wrote := history.Value(0), false
		for j := i - 1; j >= 0; j-- {
			if ops[j].Kind == history.OpWrite && ops[j].Key == op.Key {
				lastV, wrote = ops[j].Value, true
				break
			}
		}
		if wrote {
			if op.Value == lastV {
				continue
			}
			for j := 0; j < i; j++ {
				if ops[j].Kind == history.OpWrite && ops[j].Key == op.Key && ops[j].Value == op.Value {
					return anomaly(history.NotMyLastWrite, op)
				}
			}
			return anomaly(history.NotMyOwnWrite, op)
		}
		// Repeated external read (any earlier read of the key is external
		// too, since no own write precedes this one): must agree with the
		// first, and only the first derives edges.
		repeated, mismatch := false, false
		for j := 0; j < i; j++ {
			if ops[j].Kind == history.OpRead && ops[j].Key == op.Key {
				repeated = true
				mismatch = ops[j].Value != op.Value
				break
			}
		}
		if repeated {
			if mismatch {
				return anomaly(history.NonRepeatableReads, op)
			}
			continue
		}
		future := false
		for j := i + 1; j < len(ops); j++ {
			if ops[j].Kind == history.OpWrite && ops[j].Key == op.Key && ops[j].Value == op.Value {
				future = true
				break
			}
		}
		if future {
			return anomaly(history.FutureRead, op)
		}
		w := -1
		if m, ok := inc.writers[op.Key]; ok {
			if id2, ok := m[op.Value]; ok {
				w = id2
			}
		}
		if w == id {
			continue // own write, already validated by the INT branches
		}
		if w >= 0 {
			if vio := inc.resolveRead(id, w, op.Key, op.Value); vio != nil {
				return vio
			}
			continue
		}
		// Writer unseen: park. AbortedRead / ThinAirRead can only be
		// told apart once the stream ends (the writer may still
		// commit), so classification waits for Finalize.
		k := history.Op{Kind: history.OpRead, Key: op.Key, Value: op.Value}
		inc.pending[k] = append(inc.pending[k], id)
	}
	return nil
}

// resolveRead connects committed reader r to the committed writer w of
// (key, val): the G1b check, the WR edge, and — when the reader also
// writes the key — the WW edge, the divergence check, and the RW
// anti-dependencies against the other readers and overwriters of w's
// value.
func (inc *Incremental) resolveRead(r, w int, key history.Key, val history.Value) *Result {
	if last, ok := inc.finalWrites[w].get(key); ok && last != val {
		return inc.fail(Result{Level: inc.lvl, Anomalies: []history.Anomaly{
			{Kind: history.IntermediateRead, Txn: r, Key: key, Value: val},
		}})
	}
	if vio := inc.addDepEdge(graph.Edge{From: w, To: r, Kind: graph.WR, Obj: string(key)}); vio != nil {
		return vio
	}
	slot := incWK{w, key}
	inc.slotRef[slot] = inc.n // referenced now: survives window-based compaction
	// As a reader, r anti-depends on every known overwriter of (w, key).
	for _, o := range inc.overwriters[slot] {
		if o == r {
			continue
		}
		if vio := inc.addDepEdge(graph.Edge{From: r, To: o, Kind: graph.RW, Obj: string(key)}); vio != nil {
			return vio
		}
	}
	inc.readers[slot] = append(inc.readers[slot], r)
	if !inc.finalWrites[r].has(key) {
		return nil
	}
	// r is an RMW overwriter of (w, key).
	if inc.lvl == SI && len(inc.overwriters[slot]) > 0 {
		d := Divergence{Key: key, Writer: w, Reader1: inc.overwriters[slot][0], Reader2: r}
		return inc.fail(Result{Level: inc.lvl, Divergence: &d})
	}
	if vio := inc.addDepEdge(graph.Edge{From: w, To: r, Kind: graph.WW, Obj: string(key)}); vio != nil {
		return vio
	}
	for _, rd := range inc.readers[slot] {
		if rd == r {
			continue
		}
		if vio := inc.addDepEdge(graph.Edge{From: rd, To: r, Kind: graph.RW, Obj: string(key)}); vio != nil {
			return vio
		}
	}
	inc.overwriters[slot] = append(inc.overwriters[slot], r)
	return nil
}

// addDepEdge inserts one dependency edge. Under SER the edge feeds the
// online order directly; under SI base edges and RW edges feed the
// composed graph as in induceSI, one composition step at a time.
func (inc *Incremental) addDepEdge(e graph.Edge) *Result {
	inc.edges++
	if inc.lvl == SER {
		return inc.cycle(inc.topo.AddEdge(e))
	}
	if e.Kind == graph.RW {
		inc.rwOut[e.From] = append(inc.rwOut[e.From], e)
		for _, b := range inc.baseIn[e.From] {
			if vio := inc.addComposed(b, e); vio != nil {
				return vio
			}
		}
		return nil
	}
	inc.baseIn[e.To] = append(inc.baseIn[e.To], e)
	if vio := inc.cycle(inc.topo.AddEdge(e)); vio != nil {
		return vio
	}
	for _, rw := range inc.rwOut[e.To] {
		if vio := inc.addComposed(e, rw); vio != nil {
			return vio
		}
	}
	return nil
}

// addComposed inserts the composed edge base ; rw into the online order.
func (inc *Incremental) addComposed(base, rw graph.Edge) *Result {
	ck := composedKey{from: base.From, to: rw.To}
	if _, dup := inc.witness[ck]; !dup {
		inc.witness[ck] = []graph.Edge{base, rw}
	}
	return inc.cycle(inc.topo.AddEdge(graph.Edge{From: base.From, To: rw.To, Kind: graph.AUX, Obj: "(;RW)"}))
}

// cycle converts a non-nil cycle from the online order into the terminal
// verdict, expanding composed SI edges back into their constituents.
func (inc *Incremental) cycle(cy []graph.Edge) *Result {
	if cy == nil {
		return nil
	}
	if inc.lvl == SI {
		cy = expandComposed(cy, inc.witness)
	}
	return inc.fail(Result{Level: inc.lvl, Cycle: cy})
}

func (inc *Incremental) fail(r Result) *Result {
	r.NumTxns = inc.n
	r.NumEdges = inc.edges
	r.CompactedTxns = inc.compactTxns
	r.CompactedEpochs = inc.compactEpoch
	// Counterexamples are built from internal node ids; translate them to
	// the external stream positions the caller fed.
	for i := range r.Anomalies {
		r.Anomalies[i].Txn = inc.extOf(r.Anomalies[i].Txn)
	}
	if r.Divergence != nil {
		d := *r.Divergence
		d.Writer = inc.extOf(d.Writer)
		d.Reader1 = inc.extOf(d.Reader1)
		d.Reader2 = inc.extOf(d.Reader2)
		r.Divergence = &d
	}
	if len(r.Cycle) > 0 {
		cy := make([]graph.Edge, len(r.Cycle))
		for i, e := range r.Cycle {
			e.From, e.To = inc.extOf(e.From), inc.extOf(e.To)
			cy[i] = e
		}
		r.Cycle = cy
	}
	inc.vio = &r
	return inc.vio
}

// Finalize ends the stream: reads still parked are classified as
// AbortedRead or ThinAirRead (their writer never committed), and the
// overall verdict is returned. The verdict's OK equals what CheckCtx at
// SER / SI would report on the same transactions fed as one batch.
func (inc *Incremental) Finalize() Result {
	if inc.vio != nil {
		return *inc.vio
	}
	// Deterministic pick across map iteration: the earliest parked
	// reader (by external stream position — internal ids are permuted by
	// compaction), breaking ties by key then value, so identical streams
	// report identical counterexamples.
	best, bestReader := history.Op{}, -1
	//mtc:nondeterministic-ok total-order minimum with (position, key, value) tie-breaks; any iteration order picks the same winner
	for key, waiters := range inc.pending {
		r := waiters[0]
		for _, w := range waiters {
			if inc.extOf(w) < inc.extOf(r) {
				r = w
			}
		}
		if bestReader < 0 || inc.extOf(r) < inc.extOf(bestReader) ||
			(inc.extOf(r) == inc.extOf(bestReader) && (key.Key < best.Key || key.Key == best.Key && key.Value < best.Value)) {
			best, bestReader = key, r
		}
	}
	if bestReader >= 0 {
		kind := history.ThinAirRead
		if m, ok := inc.abortedW[best.Key]; ok {
			if _, ok := m[best.Value]; ok {
				kind = history.AbortedRead
			}
		}
		return *inc.fail(Result{Level: inc.lvl, Anomalies: []history.Anomaly{
			{Kind: kind, Txn: bestReader, Key: best.Key, Value: best.Value},
		}})
	}
	return Result{
		Level: inc.lvl, OK: true, NumTxns: inc.n, NumEdges: inc.edges,
		CompactedTxns: inc.compactTxns, CompactedEpochs: inc.compactEpoch,
	}
}

// RemapResult rewrites the transaction ids of a verdict's counterexample
// — anomalies, cycle edges and the divergence witness — through perm
// (ids outside perm pass through). The windowed replay uses it to map
// stream positions back to history ids, and the sharded stream verifier
// (internal/runner) to map shard-local positions to global ones.
func RemapResult(r Result, perm []int) Result {
	at := func(i int) int {
		if i >= 0 && i < len(perm) {
			return perm[i]
		}
		return i
	}
	for i := range r.Anomalies {
		r.Anomalies[i].Txn = at(r.Anomalies[i].Txn)
	}
	if r.Divergence != nil {
		d := *r.Divergence
		d.Writer, d.Reader1, d.Reader2 = at(d.Writer), at(d.Reader1), at(d.Reader2)
		r.Divergence = &d
	}
	if len(r.Cycle) > 0 {
		cy := make([]graph.Edge, len(r.Cycle))
		for i, e := range r.Cycle {
			e.From, e.To = at(e.From), at(e.To)
			cy[i] = e
		}
		r.Cycle = cy
	}
	return r
}
