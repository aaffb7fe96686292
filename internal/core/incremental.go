package core

import (
	"fmt"
	"slices"
	"strings"

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
// channel to the one verifier goroutine that owns each checker).
//
// Long-lived streams need not retain the whole history: Compact
// collapses the settled prefix of the dependency graph into summary
// edges and frees the state behind it, bounding memory by the live
// window instead of the stream length.
//
// The state is two tables. Unique values give every version — a
// (key, value) pair — one committed writer and O(1) readers, so what is
// known about a version is one slot record keyed by the version itself,
// an identity compaction cannot disturb. What is known about a
// transaction is one record of a slice indexed by its node id in the
// online graph. A compaction renumbers node ids, so they occur only as
// values (in slots, session records and SI witnesses), never as map
// keys, and each transaction's record carries the external stream
// position (the arrival index the caller observes) a verdict reports.
//
// The transaction records, the lists hanging off both tables, the write
// sets and the graph's edges live in arenas (see arenas): Add takes what
// it needs from chunked slabs and a compaction copies the survivors into
// a second set of them, so the engine allocates per epoch, not per
// transaction. Slot records have a slab of their own and never move: one
// that dies goes on a free list and is the next one handed out. The
// arenas have one owner, the Incremental; no driver learns of them.
type Incremental struct {
	lvl Level
	vio *Result

	n     int // transactions added, including aborted and init
	edges int // dependency edges, mirroring the batch graph's NumEdges
	live  int // edges currently in topo

	arenas        // what Add allocates from
	spare  arenas // what the next compaction copies into
	initID int

	// slots finds a version's record; the records themselves are handed
	// out by records, recycled through free, and keep their address for as
	// long as the version is known.
	slots   map[version]*slot
	records graph.Slab[slot]
	free    []*slot
	// latest is each key's most recent committed write: the value a fresh
	// read of the key observes, so its slot survives every compaction.
	latest map[history.Key]*slot

	sessions map[int]*sessionState

	compactTxns   int
	compactEpoch  int
	lastCompactAt int // NumTxns at the last MaybeCompact-triggered compaction
	scratch       compactScratch

	// woken is add's scratch: the slots a transaction's writes found
	// readers parked on.
	woken []wokenSlot
}

// wokenSlot is a slot with parked readers and the operation, by index,
// whose write they were waiting for.
type wokenSlot struct {
	s  *slot
	op int
}

// version identifies one written value of one key.
type version struct {
	k history.Key
	v history.Value
}

// slot is everything the checker knows about one version. Transactions
// are node ids — held as int32, because an unbounded stream keeps a slot
// per version for good — and positions are NumTxns at the time of the
// event.
type slot struct {
	key     version
	writer  int32 // committed writer, -1 while none has arrived
	aborted int32 // an aborted writer, -1 if none
	// over is the RMW overwriter: the reader of this version that also
	// writes the key, -1 while none has. Unique values leave room for one
	// only — resolveRead turns a second into the verdict.
	over int32
	live bool // Compact's scratch: its mark phase found the slot still readable
	free bool // on the free list

	parked  list // committed readers waiting for the writer, in arrival order
	readers list

	ref int // position of the last read resolved against the slot, 0 if none
	// dethroned is the position at which another transaction's write
	// replaced this one as its key's latest, 0 while none has; Compact
	// holds it against the session-staleness horizon (see ExpectSession).
	dethroned int
	// final is set on an intermediate version — one its writer went on to
	// overwrite itself — and leads towards the slot of the writer's last
	// write to the key, whose fate it shares: a read of it is the
	// IntermediateRead anomaly for exactly as long as that slot is readable.
	final *slot
}

// txnState is the per-transaction record.
type txnState struct {
	ext    int      // external stream position
	writes writeSet // final writes of a committed transaction, key-sorted
	// SI only: base (SO, WR, WW) edges into the transaction and RW edges
	// out of it, the two halves of every composition through it.
	baseIn, rwOut list
}

// sessionState is the per-session record.
type sessionState struct {
	last   int  // latest committed transaction, -1 before the first
	active bool // declared live by ExpectSession and not yet ended
	seen   int  // NumTxns at the session's last record (active sessions only)
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
		lvl:      lvl,
		arenas:   newArenas(lvl),
		initID:   -1,
		slots:    make(map[version]*slot),
		latest:   make(map[history.Key]*slot),
		sessions: make(map[int]*sessionState),
	}
}

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

// LiveEdges returns the number of edges currently in the dependency
// graph: what Add derived since the last compaction plus what Compact
// kept — the dependency edges among retained transactions and the
// summary edges standing for the collapsed paths between them. Compact
// keeps it proportional to LiveNodes.
func (inc *Incremental) LiveEdges() int { return inc.live }

// CompactedTxns returns how many transactions Compact has collapsed so
// far; CompactedEpochs how many compactions have taken effect.
func (inc *Incremental) CompactedTxns() int   { return inc.compactTxns }
func (inc *Incremental) CompactedEpochs() int { return inc.compactEpoch }

// extOf translates a node id to its external stream position.
func (inc *Incremental) extOf(i int) int { return inc.txns[i].ext }

// slotOf returns the slot of version (k, v), creating it on first mention.
func (inc *Incremental) slotOf(k history.Key, v history.Value) *slot {
	key := version{k, v}
	s := inc.slots[key]
	if s == nil {
		if n := len(inc.free); n > 0 {
			s, inc.free = inc.free[n-1], inc.free[:n-1]
		} else {
			_, s = inc.records.Alloc()
		}
		*s = slot{key: key, writer: -1, aborted: -1, over: -1}
		inc.slots[key] = s
	}
	return s
}

// writeSet is a transaction's final-write footprint as a key-sorted
// slice cut from the write slab: no hash table and no allocation per
// transaction. It is immutable once built; Compact copies the ones that
// survive into the spare slab.
type writeSet []write

type write struct {
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

// makeWriteSet collects the final write per key of ops into a sorted
// writeSet cut from arena: the writes in program order, a stable sort by
// key, and the last of every run of equal keys. O(k log k) in the writes
// — the initial transaction writes every key of the store — and the
// sort is an insertion sort on the one or two writes of a
// mini-transaction.
//
//mtc:hotpath — per-commit; the write set is cut from the slab, the sort is in place
func makeWriteSet(arena *graph.Slab[write], ops []history.Op) writeSet {
	n := 0
	for _, op := range ops {
		if op.Kind == history.OpWrite {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	ws := arena.Cut(n)[:0]
	for _, op := range ops {
		if op.Kind == history.OpWrite {
			ws = append(ws, write{op.Key, op.Value})
		}
	}
	slices.SortStableFunc(ws, func(a, b write) int { return strings.Compare(string(a.k), string(b.k)) })
	last := 0
	for i := 1; i < len(ws); i++ {
		if ws[i].k != ws[last].k {
			last++
		}
		ws[last] = ws[i] // within a run, the later write wins
	}
	return ws[: last+1 : last+1]
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
	inc.session(s).active = true
}

// EndSession declares that session s has published its last record,
// releasing its hold on the staleness horizon.
func (inc *Incremental) EndSession(s int) {
	if ss := inc.sessions[s]; ss != nil {
		ss.active = false
	}
}

// session returns the record of session s, creating it on first mention.
func (inc *Incremental) session(s int) *sessionState {
	ss := inc.sessions[s]
	if ss == nil {
		ss = &sessionState{last: -1}
		inc.sessions[s] = ss
	}
	return ss
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

//mtc:hotpath — per-commit; records, cells and write sets come from the arenas
func (inc *Incremental) add(t history.Txn, isInit bool) *Result {
	if inc.vio != nil {
		return inc.vio
	}
	id := inc.topo.AddNode()
	inc.txns = append(inc.txns, txnState{ext: inc.n}) //mtc:alloc-ok amortized growth of the record table; a compaction reuses it
	inc.n++
	ss := inc.sessions[t.Session]
	if !isInit && ss != nil && ss.active {
		ss.seen = inc.n
	}
	if !t.Committed {
		for _, op := range t.Ops {
			if op.Kind == history.OpWrite {
				inc.slotOf(op.Key, op.Value).aborted = int32(id)
			}
		}
		return nil
	}
	if isInit {
		inc.initID = id
	} else {
		if ss == nil {
			ss = inc.session(t.Session)
		}
		prev := ss.last
		if prev < 0 {
			prev = inc.initID
		}
		if prev >= 0 {
			inc.addDepEdge(graph.Edge{From: prev, To: id, Kind: graph.SO})
		}
		ss.last = id
	}

	// Register this transaction's committed writes first: its own reads
	// must resolve against them (and be skipped, as in the batch builder),
	// and unique-value violations surface here.
	inc.txns[id].writes = makeWriteSet(&inc.writes, t.Ops)
	woken := inc.woken[:0]
	for i, op := range t.Ops {
		if op.Kind != history.OpWrite {
			continue
		}
		s := inc.slotOf(op.Key, op.Value)
		if s.writer >= 0 {
			return inc.anomaly(history.DuplicateWrite, int(s.writer), op)
		}
		s.writer = int32(id)
		if prev := inc.latest[op.Key]; prev != nil {
			if prev.writer != int32(id) {
				prev.dethroned = inc.n
			} else {
				prev.final = s // this transaction overwrites its own write
			}
		}
		inc.latest[op.Key] = s
		if s.parked.head != 0 {
			woken = append(woken, wokenSlot{s, i})
		}
	}
	inc.woken = woken

	// Writers that readers were parked on have just arrived. Only once
	// every write is registered: a duplicate among them is the verdict
	// before any edge of a parked reader is.
	for _, w := range woken {
		op := t.Ops[w.op]
		waiters := w.s.parked
		w.s.parked = list{}
		for r := range each(&inc.ids, waiters) {
			if vio := inc.resolveRead(r, w.s, op.Key, op.Value); vio != nil {
				return vio
			}
		}
	}

	return inc.walkOps(id, t.Ops)
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
					return inc.anomaly(history.NotMyLastWrite, id, op)
				}
			}
			return inc.anomaly(history.NotMyOwnWrite, id, op)
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
				return inc.anomaly(history.NonRepeatableReads, id, op)
			}
			continue
		}
		for j := i + 1; j < len(ops); j++ {
			if ops[j].Kind == history.OpWrite && ops[j].Key == op.Key && ops[j].Value == op.Value {
				return inc.anomaly(history.FutureRead, id, op)
			}
		}
		s := inc.slotOf(op.Key, op.Value)
		switch {
		case int(s.writer) == id:
			// Own write, already validated by the INT branches.
		case s.writer >= 0:
			if vio := inc.resolveRead(id, s, op.Key, op.Value); vio != nil {
				return vio
			}
		default:
			// Writer unseen: park. AbortedRead / ThinAirRead can only be
			// told apart once the stream ends (the writer may still
			// commit), so classification waits for Finalize.
			push(&inc.ids, &s.parked, id)
		}
	}
	return nil
}

// resolveRead connects committed reader r to the committed writer of
// (key, val), whose slot is s: the G1b check, the WR edge, and — when the
// reader also writes the key — the WW edge, the divergence check, and
// the RW anti-dependencies against the other readers and the overwriter
// of the value.
//
//mtc:hotpath — per resolved read
func (inc *Incremental) resolveRead(r int, s *slot, key history.Key, val history.Value) *Result {
	w, over := int(s.writer), int(s.over)
	if s.final != nil {
		return inc.anomaly(history.IntermediateRead, r, history.Op{Key: key, Value: val})
	}
	if vio := inc.addDepEdge(graph.Edge{From: w, To: r, Kind: graph.WR, Obj: string(key)}); vio != nil {
		return vio
	}
	s.ref = inc.n // referenced now: survives window-based compaction
	// As a reader, r anti-depends on the value's overwriter.
	if over >= 0 {
		if vio := inc.addDepEdge(graph.Edge{From: r, To: over, Kind: graph.RW, Obj: string(key)}); vio != nil {
			return vio
		}
	}
	push(&inc.ids, &s.readers, r)
	if _, writes := inc.txns[r].writes.get(key); !writes {
		return nil
	}
	// r is an RMW overwriter of the value. A second one is the
	// DIVERGENCE pattern under SI; under SER the edge r -> over above and
	// the edge over -> r below (over is among the readers) close a cycle,
	// so s.over is only ever assigned once.
	if inc.lvl == SI && over >= 0 {
		d := Divergence{Key: key, Writer: w, Reader1: over, Reader2: r}
		return inc.fail(Result{Level: inc.lvl, Divergence: &d})
	}
	if vio := inc.addDepEdge(graph.Edge{From: w, To: r, Kind: graph.WW, Obj: string(key)}); vio != nil {
		return vio
	}
	for rd := range each(&inc.ids, s.readers) {
		if rd == r {
			continue
		}
		if vio := inc.addDepEdge(graph.Edge{From: rd, To: r, Kind: graph.RW, Obj: string(key)}); vio != nil {
			return vio
		}
	}
	s.over = int32(r)
	return nil
}

// addDepEdge inserts one dependency edge. Under SER the edge feeds the
// online order directly; under SI base edges and RW edges feed the
// composed graph (SO ∪ WR ∪ WW) ; RW?, one composition step at a time.
//
//mtc:hotpath — per dependency edge
func (inc *Incremental) addDepEdge(e graph.Edge) *Result {
	inc.edges++
	if inc.lvl == SER {
		return inc.link(e)
	}
	if e.Kind == graph.RW {
		from := &inc.txns[e.From]
		push(&inc.deps, &from.rwOut, e)
		for b := range each(&inc.deps, from.baseIn) {
			if vio := inc.addComposed(b, e); vio != nil {
				return vio
			}
		}
		return nil
	}
	push(&inc.deps, &inc.txns[e.To].baseIn, e)
	if vio := inc.link(e); vio != nil {
		return vio
	}
	for rw := range each(&inc.deps, inc.txns[e.To].rwOut) {
		if vio := inc.addComposed(e, rw); vio != nil {
			return vio
		}
	}
	return nil
}

// addComposed inserts the composed edge base ; rw into the online order.
// The first pair to compose an edge is the witness it reports.
//
//mtc:hotpath — per composed edge; the witness is stored inline in the map
func (inc *Incremental) addComposed(base, rw graph.Edge) *Result {
	ck := composedKey{from: base.From, to: rw.To}
	if _, dup := inc.witness[ck]; !dup {
		inc.witness[ck] = [2]graph.Edge{base, rw}
	}
	return inc.link(graph.Edge{From: base.From, To: rw.To, Kind: graph.AUX, Obj: "(;RW)"})
}

// composedKey identifies a composed edge in the online witness map.
type composedKey struct{ from, to int }

// expandComposed rewrites a cycle of G' into the underlying dependency
// edges so that counterexamples read like the paper's figures.
func expandComposed(cycle []graph.Edge, expand map[composedKey][2]graph.Edge) []graph.Edge {
	var out []graph.Edge
	for _, e := range cycle {
		if e.Kind == graph.AUX {
			if w, ok := expand[composedKey{e.From, e.To}]; ok {
				out = append(out, w[:]...)
				continue
			}
		}
		out = append(out, e)
	}
	return out
}

// link inserts e into the online order. A cycle it closes is the terminal
// verdict, composed SI edges expanded back into their constituents.
//
//mtc:hotpath — per edge of the online graph
func (inc *Incremental) link(e graph.Edge) *Result {
	inc.live++
	cy := inc.topo.AddEdge(e)
	if cy == nil {
		return nil
	}
	if inc.lvl == SI {
		cy = expandComposed(cy, inc.witness)
	}
	return inc.fail(Result{Level: inc.lvl, Cycle: cy})
}

// anomaly is the terminal verdict for an anomaly of kind on op's version,
// in the transaction with node id txn.
func (inc *Incremental) anomaly(kind history.AnomalyKind, txn int, op history.Op) *Result {
	return inc.fail(Result{Level: inc.lvl, Anomalies: []history.Anomaly{
		{Kind: kind, Txn: txn, Key: op.Key, Value: op.Value},
	}})
}

func (inc *Incremental) fail(r Result) *Result {
	r.NumTxns = inc.n
	r.NumEdges = inc.edges
	r.CompactedTxns = inc.compactTxns
	r.CompactedEpochs = inc.compactEpoch
	// Counterexamples are built from node ids; report the external stream
	// positions the caller fed.
	r = rewriteIDs(r, inc.extOf)
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
	// reader (by external stream position — node ids are permuted by
	// compaction; each parked list is in arrival order, so its head is
	// its earliest), breaking ties by key then value, so identical
	// streams report identical counterexamples.
	var (
		best     version
		bestSlot *slot
	)
	first := func(s *slot) int { return inc.ids.At(s.parked.head).v }
	//mtc:nondeterministic-ok total-order minimum with (position, key, value) tie-breaks; any iteration order picks the same winner
	for key, s := range inc.slots {
		if s.parked.head == 0 {
			continue
		}
		if bestSlot != nil {
			r, b := inc.extOf(first(s)), inc.extOf(first(bestSlot))
			if r > b || r == b && (key.k > best.k || key.k == best.k && key.v >= best.v) {
				continue
			}
		}
		best, bestSlot = key, s
	}
	if bestSlot != nil {
		kind := history.ThinAirRead
		if bestSlot.aborted >= 0 {
			kind = history.AbortedRead
		}
		return *inc.anomaly(kind, first(bestSlot), history.Op{Key: best.k, Value: best.v})
	}
	return Result{
		Level: inc.lvl, OK: true, NumTxns: inc.n, NumEdges: inc.edges,
		CompactedTxns: inc.compactTxns, CompactedEpochs: inc.compactEpoch,
	}
}

// RemapResult rewrites the transaction ids of a verdict's counterexample
// — anomalies, cycle edges and the divergence witness — through perm
// (ids outside perm pass through). The windowed replay uses it to map
// stream positions back to history ids, and the stream verifier
// (internal/runner) to map group-local positions to global ones.
func RemapResult(r Result, perm []int) Result {
	return rewriteIDs(r, func(i int) int {
		if i >= 0 && i < len(perm) {
			return perm[i]
		}
		return i
	})
}

// rewriteIDs maps every transaction id of r's counterexample through at.
// The cycle and the divergence witness are copied first: their originals
// belong to the online graph and to whoever built the verdict.
func rewriteIDs(r Result, at func(int) int) Result {
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
