package core

import (
	"fmt"
	"math/rand/v2"
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
// Every read is classified by history.ClassifyRead, the code the batch
// pre-check runs. Reads whose writer has not yet been observed are
// parked and resolved when the writer commits — or classified as
// AbortedRead / ThinAirRead at Finalize, exactly as the batch pre-check
// would.
//
// An Incremental is not safe for concurrent use; callers serialise Add
// (internal/runner.RunStream funnels its session goroutines through a
// channel to the dispatcher goroutine that feeds its one checker).
//
// Long-lived streams need not retain the whole history: Compact
// collapses the settled prefix of the dependency graph into summary
// edges and frees the state behind it, bounding memory by the live
// window instead of the stream length.
//
// The state is three tables. The key table interns keys: an op hashes a
// string once, or never through a source id bound to it (keyOf), and an
// edge is a graph.Arc naming its key by id, rendered only in a verdict.
// Unique values give every version — a (key id, value) pair — one
// committed writer and O(1) readers, so what is known about a version is
// one slot record found by the version itself — through the version table,
// in one probe run — an identity compaction cannot disturb. What is known
// about a transaction is one record of a slice indexed by its node id in
// the online graph. A compaction renumbers node ids, so they occur only as
// values (in slots, session records and the SI lists), never as keys, and
// each transaction's record carries the external stream position (the
// arrival index the caller observes) a verdict reports.
//
// The transaction records, the lists hanging off both tables, the write
// sets and the graph's edges live in arenas (see arenas): Add takes what
// it needs from chunked slabs and a compaction copies the survivors into
// a second set of them, so the engine allocates per epoch, not per
// transaction. Slot records have a slab of their own and never move: one
// that dies goes on a free list, under its int32 id, and is the next one
// handed out. A key with a committed write — the only kind an edge names
// — is pinned by latest; any other gives its id back with its last slot.
// The arenas have one owner, the Incremental; no driver learns of them.
type Incremental struct {
	lvl Level
	vio *Result

	n     int // transactions added, including aborted and init
	edges int // dependency edges, mirroring the batch graph's NumEdges
	live  int // edges currently in topo

	arenas        // what Add allocates from
	spare  arenas // what the next compaction copies into
	initID int

	// The key table (see keyOf) and, by key id, how many slots name a key.
	keyIDs   map[history.Key]int32
	keys     []history.Key
	keySlots []int32
	freeKeys []int32
	// wire binds, plus one (0: none), a keyed source's ids to key ids
	// (keyOf), and wireOf key ids back to them.
	wire, wireOf []int32
	// latest is, by key id, the slot of the key's latest committed write
	// (0: none), the value a fresh read observes: it survives compactions.
	latest []int32

	// slots finds a version's record id; the records themselves are handed
	// out by records, recycled through free, and keep their address for as
	// long as the version is known.
	slots   versionTable
	records graph.Slab[slot]
	free    []int32
	parked  int // slots with a non-empty parked list

	sessions map[int]*sessionState

	compactTxns   int
	compactEpoch  int
	lastCompactAt int // NumTxns at the last MaybeCompact-triggered compaction
	scratch       compactScratch

	// droppedExt is, by slot id, the external position of a writer a
	// compaction dropped (see slot.writer); the first such compaction
	// allocates it.
	droppedExt []int
}

// version identifies one written value of one key, by key id.
type version struct {
	key int32
	v   history.Value
}

// versionTable finds a version's slot record id in one probe run: ids
// (0: empty) in a power-of-two array, probed linearly from a home cell —
// murmur3's fmix64 of value and key id under a per-table seed, which no
// value a hostile stream picks can aim — and compared through the record
// the caller reads next. It doubles at load ½ and deletes by backward
// shift (no tombstones). Nothing iterates it: the seed reaches no verdict.
type versionTable struct {
	cells []int32
	n     int
	seed  [2]uint64 // xor-ed into the value; the odd multiplier of the key id
}

func newVersionTable() versionTable {
	return versionTable{cells: make([]int32, 16), seed: [2]uint64{rand.Uint64(), rand.Uint64() | 1}}
}

func (t *versionTable) home(key version) int {
	h := uint64(key.v) ^ t.seed[0] + uint64(key.key)*t.seed[1]
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return int(h^h>>33) & (len(t.cells) - 1)
}

// find returns key's cell and record id, or the empty cell put fills and 0.
func (t *versionTable) find(recs *graph.Slab[slot], key version) (int, int32) {
	for i := t.home(key); ; i = (i + 1) & (len(t.cells) - 1) {
		if id := t.cells[i]; id == 0 || recs.At(id).key == key {
			return i, id
		}
	}
}

// put stores id in the empty cell find returned for its version.
func (t *versionTable) put(recs *graph.Slab[slot], i int, id int32) {
	t.cells[i] = id
	if t.n++; 2*t.n <= len(t.cells) {
		return
	}
	old := t.cells
	t.cells = make([]int32, 2*len(old))
	for _, id := range old {
		if id != 0 {
			i, _ := t.find(recs, recs.At(id).key)
			t.cells[i] = id
		}
	}
}

// del removes record s, found by identity along its probe run, and returns
// its id; each later entry of the run whose home is not past the hole
// moves into it, leaving a hole where it was.
func (t *versionTable) del(recs *graph.Slab[slot], s *slot) int32 {
	mask, i := len(t.cells)-1, t.home(s.key)
	for recs.At(t.cells[i]) != s {
		i = (i + 1) & mask
	}
	id := t.cells[i]
	for j := (i + 1) & mask; t.cells[j] != 0; j = (j + 1) & mask {
		if h := t.home(recs.At(t.cells[j]).key); (j-h)&mask >= (j-i)&mask {
			t.cells[i], i = t.cells[j], j
		}
	}
	t.cells[i], t.n = 0, t.n-1
	return id
}

// slot is everything the checker knows about one version. Transactions
// are node ids — held as int32, because an unbounded stream keeps a slot
// per version for good — and positions are NumTxns at the time of the
// event.
type slot struct {
	key version
	// writer is the committed writer, -1 while none has arrived, or -2
	// minus the slot's id once a compaction dropped it from the graph of a
	// readable slot: extOf reads that back as its external position, a
	// duplicate write and a divergence name it, and a read resolves,
	// counting the edges out of it without adding them (addDepEdge).
	writer  int32
	aborted int32 // an aborted writer, -1 if none
	// over is the RMW overwriter: the reader of this version that also
	// writes the key, -1 while none has. Unique values leave room for one
	// only — resolveRead turns a second into the verdict.
	over int32
	live bool // Compact's scratch: its mark phase found the slot still readable
	free bool // on the free list

	parked  list // committed readers waiting for the writer, in arrival order
	readers list // in arrival order; -1 for one a compaction dropped

	ref int // position of the last read resolved against the slot, 0 if none
	// dethroned is the position at which another transaction's write
	// replaced this one as its key's latest, 0 while none has; Compact
	// holds it against the session-staleness horizon (see ExpectSession).
	dethroned int
	// final is set on an intermediate version — one its writer went on to
	// overwrite itself — and leads towards the slot of the writer's last
	// write to the key, whose fate it shares: a read of it is the
	// IntermediateRead anomaly for exactly as long as that slot is readable.
	final int32
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
		arenas:   newArenas(),
		initID:   -1,
		keyIDs:   make(map[history.Key]int32),
		slots:    newVersionTable(),
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

// extOf translates a node id, or a dropped writer's stand-in (see
// slot.writer), to its external stream position.
func (inc *Incremental) extOf(i int) int {
	if i < -1 {
		return inc.droppedExt[-2-i]
	}
	return inc.txns[i].ext
}

// slotOf returns version (k, v)'s slot and id, creating it on first
// mention; wid is the source's id for k (see keyOf).
func (inc *Incremental) slotOf(k history.Key, v history.Value, wid history.KeyID) (int32, *slot) {
	key := version{inc.keyOf(k, wid), v}
	cell, id := inc.slots.find(&inc.records, key)
	if id == 0 {
		if n := len(inc.free); n > 0 {
			id, inc.free = inc.free[n-1], inc.free[:n-1]
		} else {
			id, _ = inc.records.Alloc()
		}
		*inc.records.At(id) = slot{key: key, writer: -1, aborted: -1, over: -1}
		inc.slots.put(&inc.records, cell, id)
		inc.keySlots[key.key]++
	}
	return id, inc.records.At(id)
}

// keyOf returns k's id in the key table, interning it on first mention.
// wid is the id the source gave k, or -1: a bound one finds k's id
// without hashing k, and the map path binds it for the next op.
func (inc *Incremental) keyOf(k history.Key, wid history.KeyID) int32 {
	if wid >= 0 && int(wid) < len(inc.wire) && inc.wire[wid] != 0 {
		return inc.wire[wid] - 1
	}
	id, ok := inc.keyIDs[k]
	if !ok {
		id = int32(len(inc.keys))
		if n := len(inc.freeKeys); n > 0 {
			id, inc.freeKeys = inc.freeKeys[n-1], inc.freeKeys[:n-1]
			inc.keys[id] = k
		} else {
			inc.keys = graph.Append(inc.keys, k)
			inc.keySlots = graph.Append(inc.keySlots, 0)
			inc.latest = graph.Append(inc.latest, 0)
		}
		inc.keyIDs[k] = id
	}
	if wid >= 0 {
		for int(wid) >= len(inc.wire) {
			inc.wire = graph.Append(inc.wire, 0)
		}
		for int(id) >= len(inc.wireOf) {
			inc.wireOf = graph.Append(inc.wireOf, 0)
		}
		inc.wire[wid], inc.wireOf[id] = id+1, int32(wid)+1
	}
	return id
}

// idAt is the source's id for the key of op i, -1 when it gave none.
func idAt(ids []history.KeyID, i int) history.KeyID {
	if i < len(ids) {
		return ids[i]
	}
	return -1
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
	i, ok := slices.BinarySearchFunc(ws, k, func(w write, k history.Key) int { return strings.Compare(string(w.k), string(k)) })
	if !ok {
		return 0, false
	}
	return ws[i].v, true
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
	return inc.add(history.Txn{Ops: ops, Committed: true}, nil, true)
}

// Add feeds the next transaction. Its ID is assigned as the number of
// transactions fed before it (matching History.Txns indexing when the
// same stream is also collected into a history); Session, Ops and
// Committed are honoured, timestamps are ignored. Transactions of one
// session must arrive in session order; sessions may interleave freely.
// It returns the violation verdict as soon as one exists (every later
// Add is then a no-op returning the same verdict), nil otherwise.
func (inc *Incremental) Add(t history.Txn) *Result {
	return inc.add(t, nil, false)
}

// add is Add, as the init transaction when isInit holds; ids holds the
// source's id of each op's key, or nothing when it gave none (keyOf).
//
//mtc:hotpath — per-commit; records, cells and write sets come from the arenas
func (inc *Incremental) add(t history.Txn, ids []history.KeyID, isInit bool) *Result {
	if inc.vio != nil {
		return inc.vio
	}
	id := inc.topo.AddNode()
	inc.txns = graph.Append(inc.txns, txnState{ext: inc.n})
	inc.n++
	ss := inc.sessions[t.Session]
	if !isInit && ss != nil && ss.active {
		ss.seen = inc.n
	}
	if !t.Committed {
		for i, op := range t.Ops {
			if op.Kind == history.OpWrite {
				_, s := inc.slotOf(op.Key, op.Value, idAt(ids, i))
				s.aborted = int32(id)
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
			inc.addDepEdge(graph.Arc{From: int32(prev), To: int32(id), Obj: graph.NoObj, Kind: graph.SO})
		}
		ss.last = id
	}

	// Register this transaction's committed writes first: its own reads
	// must resolve against them (and be skipped, as in the batch builder),
	// and unique-value violations surface here.
	inc.txns[id].writes = makeWriteSet(&inc.writes, t.Ops)
	woken := inc.scratch.cols[:0]
	for i, op := range t.Ops {
		if op.Kind != history.OpWrite {
			continue
		}
		sid, s := inc.slotOf(op.Key, op.Value, idAt(ids, i))
		if s.writer != -1 {
			return inc.anomaly(history.DuplicateWrite, int(s.writer), op)
		}
		s.writer = int32(id)
		if prev := inc.latest[s.key.key]; prev != 0 {
			if p := inc.records.At(prev); p.writer != int32(id) {
				p.dethroned = inc.n
			} else {
				p.final = sid // this transaction overwrites its own write
			}
		}
		inc.latest[s.key.key] = sid
		if s.parked.head != 0 {
			woken = append(woken, sid)
		}
	}
	inc.scratch.cols = woken

	// Writers that readers were parked on have just arrived. Only once
	// every write is registered: a duplicate among them is the verdict
	// before any edge of a parked reader is.
	for _, sid := range woken {
		s := inc.records.At(sid)
		waiters := s.parked
		s.parked = list{}
		inc.parked--
		for _, r := range each(&inc.ids, waiters) {
			if vio := inc.resolveRead(r, s); vio != nil {
				return vio
			}
		}
	}

	return inc.walkOps(int32(id), t.Ops, ids)
}

// walkOps classifies every read of committed transaction id with
// history.ClassifyRead, the batch pre-check's classifier, and derives the
// dependency edges of its first external reads.
//
//mtc:hotpath — per-commit classification; allocation here scales with every streamed transaction
func (inc *Incremental) walkOps(id int32, ops []history.Op, ids []history.KeyID) *Result {
	for i, op := range ops {
		if op.Kind != history.OpRead {
			continue
		}
		switch class, kind := history.ClassifyRead(ops, i); class {
		case history.AnomalousRead:
			return inc.anomaly(kind, int(id), op)
		case history.OwnRead:
			continue
		}
		// A first external read: its writer is another transaction.
		if _, s := inc.slotOf(op.Key, op.Value, idAt(ids, i)); s.writer == -1 {
			// Writer unseen: park. AbortedRead / ThinAirRead can only be
			// told apart once the stream ends (the writer may still
			// commit), so classification waits for Finalize.
			if s.parked.head == 0 {
				inc.parked++
			}
			push(&inc.ids, &s.parked, id)
		} else if vio := inc.resolveRead(id, s); vio != nil {
			return vio
		}
	}
	return nil
}

// resolveRead connects committed reader r to the committed writer of
// the version whose slot is s: the G1b check, the WR edge, and — when the
// reader also writes the key — the WW edge, the divergence check, and
// the RW anti-dependencies against the other readers and the overwriter
// of the value.
//
//mtc:hotpath — per resolved read
func (inc *Incremental) resolveRead(r int32, s *slot) *Result {
	w, over, k := s.writer, s.over, s.key.key
	key := inc.keys[k]
	if s.final != 0 {
		return inc.anomaly(history.IntermediateRead, int(r), history.Op{Key: key, Value: s.key.v})
	}
	if vio := inc.addDepEdge(graph.Arc{From: w, To: r, Obj: k, Kind: graph.WR}); vio != nil {
		return vio
	}
	s.ref = inc.n // referenced now: survives window-based compaction
	// As a reader, r anti-depends on the value's overwriter.
	if over >= 0 {
		if vio := inc.addDepEdge(graph.Arc{From: r, To: over, Obj: k, Kind: graph.RW}); vio != nil {
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
		d := Divergence{Key: key, Writer: int(w), Reader1: int(over), Reader2: int(r)}
		return inc.fail(Result{Level: inc.lvl, Divergence: &d})
	}
	if vio := inc.addDepEdge(graph.Arc{From: w, To: r, Obj: k, Kind: graph.WW}); vio != nil {
		return vio
	}
	for _, rd := range each(&inc.ids, s.readers) {
		if rd == r {
			continue
		}
		if vio := inc.addDepEdge(graph.Arc{From: rd, To: r, Obj: k, Kind: graph.RW}); vio != nil {
			return vio
		}
	}
	s.over = r
	return nil
}

// addDepEdge inserts one dependency edge. Under SER the edge feeds the
// online order directly; under SI base edges and RW edges feed the
// composed graph (SO ∪ WR ∪ WW) ; RW?, one composition step at a time:
// each pair links one AUX edge and records nothing, its edge's first pair
// being found again from the lists if a cycle needs it (composeWitness).
//
//mtc:hotpath — per dependency edge and per composed edge
func (inc *Incremental) addDepEdge(e graph.Arc) *Result {
	inc.edges++
	if e.From < 0 { // out of a node a compaction dropped: no cycle can pass it
		return nil
	}
	if inc.lvl == SER {
		return inc.link(e)
	}
	if e.Kind == graph.RW {
		from := &inc.txns[e.From]
		push(&inc.deps, &from.rwOut, e)
		for _, b := range each(&inc.deps, from.baseIn) {
			if vio := inc.link(graph.Arc{From: b.From, To: e.To, Obj: composedObj, Kind: graph.AUX}); vio != nil {
				return vio
			}
		}
		return nil
	}
	push(&inc.deps, &inc.txns[e.To].baseIn, e)
	if vio := inc.link(e); vio != nil {
		return vio
	}
	for _, rw := range each(&inc.deps, inc.txns[e.To].rwOut) {
		if vio := inc.link(graph.Arc{From: e.From, To: rw.To, Obj: composedObj, Kind: graph.AUX}); vio != nil {
			return vio
		}
	}
	return nil
}

// composedKey identifies a composed edge in a compaction's witness map.
type composedKey struct{ from, to int32 }

// noWitness stands for a first pair a compaction collapsed (carryWitnesses).
var noWitness [2]graph.Arc

// composeWitness returns the pair base ; rw that first composed f → t, if
// any: the compaction's, else the first this epoch composed. A pair
// composes when its later cell is pushed, so pairs compose in the order of
// (later, earlier) cell id; two cells at or below mark composed before the
// compaction. A pair a cycle cut short shares the closing edge's head or
// tail, which no other arc of the (simple) cycle does.
func (inc *Incremental) composeWitness(f, t int32) (best [2]graph.Arc, found bool) {
	if w := inc.witness[composedKey{f, t}]; w != noWitness {
		return w, true
	}
	var at int64 // best's (later, earlier) cell ids
	for _, a := range inc.topo.Out(int(f)) {
		m := &inc.txns[a.To] // the base arcs out of f lead to every mid
		for bid, b := range each(&inc.deps, m.baseIn) {
			for rid, r := range each(&inc.deps, m.rwOut) {
				c := int64(max(bid, rid))<<32 | int64(min(bid, rid))
				if b.From == f && r.To == t && max(bid, rid) > inc.mark && (!found || c < at) {
					best, at, found = [2]graph.Arc{b, r}, c, true
				}
			}
		}
	}
	return best, found
}

// The Obj ids of the two kinds of AUX edge, and the names they report.
const (
	epochObj    = graph.NoObj - 1 // a summary edge Compact leaves between kept nodes
	composedObj = graph.NoObj - 2 // a composed SI edge, base ; RW
)

var reservedNames = [...]string{"(;RW)", "epoch", ""} // indexed by Obj - composedObj

// expandComposed renders a cycle of the online graph, rewriting composed
// SI edges into the underlying dependency edges so that counterexamples
// read like the paper's figures, and naming objects through the key table.
func (inc *Incremental) expandComposed(cycle []graph.Arc) []graph.Edge {
	var out []graph.Edge
	for _, a := range cycle {
		arcs := []graph.Arc{a}
		if a.Kind == graph.AUX {
			if w, ok := inc.composeWitness(a.From, a.To); ok {
				arcs = w[:]
			}
		}
		for _, a := range arcs {
			e := graph.Edge{From: int(a.From), To: int(a.To), Kind: a.Kind, Obj: reservedNames[min(a.Obj, graph.NoObj)-composedObj]}
			if a.Obj >= 0 {
				e.Obj = string(inc.keys[a.Obj])
			}
			out = append(out, e)
		}
	}
	return out
}

// link inserts e into the online order. A cycle it closes is the terminal
// verdict, composed SI edges expanded back into their constituents.
//
//mtc:hotpath — per edge of the online graph
func (inc *Incremental) link(e graph.Arc) *Result {
	inc.live++
	cy := inc.topo.AddEdge(e)
	if cy == nil {
		return nil
	}
	return inc.fail(Result{Level: inc.lvl, Cycle: inc.expandComposed(cy)})
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
	if inc.vio == nil && inc.parked > 0 {
		// Deterministic pick: the earliest parked reader (by external stream
		// position — node ids are permuted by compaction; each parked list is
		// in arrival order, so its head is its earliest), breaking ties by key
		// then value, so identical streams report identical counterexamples.
		var best *slot
		first := func(s *slot) int { return int(inc.ids.At(s.parked.head).v) }
		for _, s := range inc.records.All() {
			if s.parked.head == 0 {
				continue
			}
			if best != nil {
				r, b := inc.extOf(first(s)), inc.extOf(first(best))
				k, bk := inc.keys[s.key.key], inc.keys[best.key.key]
				if r > b || r == b && (k > bk || k == bk && s.key.v >= best.key.v) {
					continue
				}
			}
			best = s
		}
		kind := history.ThinAirRead
		if best.aborted >= 0 {
			kind = history.AbortedRead
		}
		inc.anomaly(kind, first(best), history.Op{Key: inc.keys[best.key.key], Value: best.key.v})
	}
	if inc.vio != nil {
		return *inc.vio
	}
	return Result{
		Level: inc.lvl, OK: true, NumTxns: inc.n, NumEdges: inc.edges,
		CompactedTxns: inc.compactTxns, CompactedEpochs: inc.compactEpoch,
	}
}

// RemapResult rewrites the transaction ids of a verdict's counterexample
// — anomalies, cycle edges and the divergence witness — through perm
// (ids outside perm pass through). The windowed replay uses it to map
// stream positions back to history ids, and the shard driver
// (internal/shard) to map a component's ids to the source history's.
func RemapResult(r Result, perm []int) Result {
	return rewriteIDs(r, func(i int) int {
		if i >= 0 && i < len(perm) {
			return perm[i]
		}
		return i
	})
}

// rewriteIDs maps every transaction id of r's counterexample through at.
// The anomalies, the cycle and the divergence witness are copied first:
// their originals belong to the checker's verdict and to whoever built it.
func rewriteIDs(r Result, at func(int) int) Result {
	r.Anomalies = slices.Clone(r.Anomalies)
	for i := range r.Anomalies {
		r.Anomalies[i].Txn = at(r.Anomalies[i].Txn)
	}
	if r.Divergence != nil {
		d := *r.Divergence
		d.Writer, d.Reader1, d.Reader2 = at(d.Writer), at(d.Reader1), at(d.Reader2)
		r.Divergence = &d
	}
	r.Cycle = slices.Clone(r.Cycle)
	for i := range r.Cycle {
		r.Cycle[i].From, r.Cycle[i].To = at(r.Cycle[i].From), at(r.Cycle[i].To)
	}
	return r
}
