package history

import (
	"cmp"
	"slices"
	"sort"
)

// KeyID is a dense interned key identifier. The Index assigns ids in
// lexicographic key order, so sorting a column by KeyID sorts it by key
// name — the property the merge-join edge derivations in internal/core
// and internal/polygraph rely on for deterministic, map-free iteration.
type KeyID int32

// Interner assigns dense int32 ids to keys in first-seen order. It is
// the lightweight interning layer shared by Index (which afterwards
// remaps ids into sorted order) and by consumers that only need dense
// ids, like shard.Split's union-find over keys.
type Interner struct {
	ids   map[Key]KeyID
	names []string // Key's underlying type, so Index.KeyNames can lend it
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[Key]KeyID)}
}

// Intern returns the id of k, assigning the next dense id on first sight.
func (it *Interner) Intern(k Key) KeyID {
	if id, ok := it.ids[k]; ok {
		return id
	}
	id := KeyID(len(it.names))
	it.ids[k] = id
	it.names = append(it.names, string(k))
	return id
}

// Lookup returns the id of k without interning, and whether it is known.
func (it *Interner) Lookup(k Key) (KeyID, bool) {
	id, ok := it.ids[k]
	return id, ok
}

// Len returns the number of interned keys.
func (it *Interner) Len() int { return len(it.names) }

// Name returns the key with id. It panics on out-of-range ids.
func (it *Interner) Name(id KeyID) Key { return Key(it.names[id]) }

// Index is a columnar, immutable view of a History built once per check:
// keys are interned to dense KeyIDs (in lexicographic order), each
// committed transaction's first-external-read and last-write footprints
// are stored as parallel (KeyID, Value) column slices sorted by KeyID in
// one shared arena (no per-transaction maps), and every committed write
// operation is indexed into per-key postings sorted by value. Aborted
// writes get their own postings for G1a classification.
//
// The footprints decide exactly the predicates of the map-based
// reference accessors kept in reference_test.go: Reads(t) enumerates
// Txn.Reads() sorted by key, Writes(t) enumerates Txn.Writes() sorted by
// key, Writer matches WriterIndex.Writer, and Dups matches
// BuildWriterIndex's dups — an equivalence the randomized tests in
// index_test.go pin down.
type Index struct {
	h  *History
	it *Interner // names sorted lexicographically; KeyID == sorted rank

	// Per-txn footprint columns: transaction t's reads occupy
	// readKey[readOff[t]:readOff[t+1]] (parallel readVal), sorted by
	// KeyID; likewise writes. Aborted transactions have empty footprints.
	readKey  []KeyID
	readVal  []Value
	readOff  []int32
	writeKey []KeyID
	writeVal []Value
	writeOff []int32

	// Committed write-op postings: slot s holds the unique (key, value)
	// pair slotVal[s] of key k for s in [slotOff[k], slotOff[k+1]),
	// sorted by value within the key segment, written first by
	// slotTxn[s]. One slot per distinct (key, value) — duplicate write
	// ops land in dups instead, keeping the first writer, exactly as
	// BuildWriterIndex does.
	slotVal []Value
	slotTxn []int32
	slotOff []int32

	// Aborted write postings, same shape (last aborted writer wins; only
	// existence is ever queried).
	abVal []Value
	abTxn []int32
	abOff []int32

	// writersTxn[writersOff[k]:writersOff[k+1]] lists the distinct
	// committed writers of key k, ascending.
	writersTxn []int32
	writersOff []int32

	dups []Op

	// opKey is the per-op KeyID column the index was built from: one id
	// per op of h, in transaction-then-program order. The pre-check
	// compares these instead of key strings.
	opKey []KeyID
	// readTxn[i] is the committed writer of read-footprint entry i —
	// Writer(readKey[i], readVal[i]) — resolved once at build time.
	readTxn []int32
}

// NewIndex builds the columnar index of h. Cost is O(ops + keys), plus
// the lexicographic sort of the distinct keys and of any wide footprint,
// when each key's values ascend in op order (a key whose values do not
// is value-sorted); everything downstream of it is allocation-free
// column iteration.
func NewIndex(h *History) *Index {
	// Intern in first-seen order, recording each op's id into a flat
	// column, then remap the column to lexicographic rank so KeyID
	// order equals key-name order. The builders below consume the
	// column by position — no per-op map lookup after this pass.
	nOps := 0
	for i := range h.Txns {
		nOps += len(h.Txns[i].Ops)
	}
	first := NewInterner()
	opIDs := make([]KeyID, nOps)
	pos := 0
	for i := range h.Txns {
		for _, op := range h.Txns[i].Ops {
			opIDs[pos] = first.Intern(op.Key)
			pos++
		}
	}
	nk := first.Len()
	sortedNames := make([]string, nk)
	copy(sortedNames, first.names)
	slices.Sort(sortedNames)
	remap := make([]KeyID, nk) // first-seen id -> sorted rank
	sorted := NewInterner()
	for _, k := range sortedNames {
		sorted.Intern(Key(k))
	}
	for id, k := range first.names {
		remap[id], _ = sorted.Lookup(Key(k))
	}
	remapColumn(opIDs, remap)
	return newIndexColumns(h, sorted, opIDs)
}

// newIndexColumns assembles an Index from a sorted interner and the
// flat per-op KeyID column (one id per op of h, in transaction-then-
// program order). NewIndex derives the column by interning; the MTCB
// indexed decoder hands over the remapped wire ids directly.
func newIndexColumns(h *History, it *Interner, opIDs []KeyID) *Index {
	ix := &Index{h: h, it: it, opKey: opIDs}
	ix.buildFootprints(h, opIDs)
	ix.buildPostings(h, opIDs)
	ix.resolveReads()
	return ix
}

// buildFootprints fills the per-txn read/write columns.
//
//mtc:hotpath — columnar index construction; the 9-allocs-per-10k-txn contract starts here
func (ix *Index) buildFootprints(h *History, opIDs []KeyID) {
	n, nOps := len(h.Txns), len(opIDs)
	ix.readOff = make([]int32, n+1)
	ix.writeOff = make([]int32, n+1)
	ix.readKey = make([]KeyID, 0, nOps/2)
	ix.readVal = make([]Value, 0, nOps/2)
	ix.writeKey = make([]KeyID, 0, nOps/2)
	ix.writeVal = make([]Value, 0, nOps/2)

	// Generation-stamped scratch, reused across transactions: gen[k]
	// tracks the txn that last touched key k (split by read/write so a
	// read after an own write is excluded, matching Txn.Reads).
	nk := ix.it.Len()
	readGen := make([]int32, nk)
	writeGen := make([]int32, nk)
	writeAt := make([]int32, nk) // write column position of the txn's last write
	for i := range readGen {
		readGen[i], writeGen[i] = -1, -1
	}

	pos := 0 // opIDs cursor; advances over aborted txns' ops too
	for t := range h.Txns {
		ix.readOff[t] = int32(len(ix.readKey))
		ix.writeOff[t] = int32(len(ix.writeKey))
		txn := &h.Txns[t]
		if !txn.Committed {
			pos += len(txn.Ops)
			continue
		}
		gen := int32(t)
		for j, op := range txn.Ops {
			k := opIDs[pos+j]
			switch op.Kind {
			case OpRead:
				if writeGen[k] != gen && readGen[k] != gen {
					readGen[k] = gen
					ix.readKey = append(ix.readKey, k)
					ix.readVal = append(ix.readVal, op.Value)
				}
			case OpWrite:
				if writeGen[k] != gen {
					writeGen[k] = gen
					writeAt[k] = int32(len(ix.writeKey))
					ix.writeKey = append(ix.writeKey, k)
					ix.writeVal = append(ix.writeVal, op.Value)
				} else {
					ix.writeVal[writeAt[k]] = op.Value // last write wins
				}
			}
		}
		pos += len(txn.Ops)
		sortColumn(ix.readKey[ix.readOff[t]:], ix.readVal[ix.readOff[t]:])
		sortColumn(ix.writeKey[ix.writeOff[t]:], ix.writeVal[ix.writeOff[t]:])
	}
	ix.readOff[n] = int32(len(ix.readKey))
	ix.writeOff[n] = int32(len(ix.writeKey))
}

// sortColumn sorts a (key, value) column tail by KeyID. Footprints are
// tiny (mini-transactions touch at most two keys), so insertion sort
// beats sort.Sort without allocating; a wide one — ⊥T writes every key —
// takes sort.Sort, where insertion sort is quadratic in its width.
func sortColumn(keys []KeyID, vals []Value) {
	if len(keys) > 16 {
		sort.Sort(keyValColumn{keys, vals})
		return
	}
	for i := 1; i < len(keys); i++ {
		k, v := keys[i], vals[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1], vals[j+1] = keys[j], vals[j]
			j--
		}
		keys[j+1], vals[j+1] = k, v
	}
}

// keyValColumn sorts a footprint's parallel key and value columns by key.
type keyValColumn struct {
	k []KeyID
	v []Value
}

func (c keyValColumn) Len() int           { return len(c.k) }
func (c keyValColumn) Less(i, j int) bool { return c.k[i] < c.k[j] }
func (c keyValColumn) Swap(i, j int) {
	c.k[i], c.k[j] = c.k[j], c.k[i]
	c.v[i], c.v[j] = c.v[j], c.v[i]
}

// kvt is a scratch triple for the aborted postings.
type kvt struct {
	k KeyID
	v Value
	t int32
}

// compare orders postings by (key, value); the transaction is not part
// of the order.
func (a kvt) compare(b kvt) int {
	if c := cmp.Compare(a.k, b.k); c != 0 {
		return c
	}
	return cmp.Compare(a.v, b.v)
}

// vt is one committed write in a key's run of the postings scratch.
type vt struct {
	v Value
	t int32
}

// compare orders a key's run by value; the transaction is not part of
// the order.
func (a vt) compare(b vt) int { return cmp.Compare(a.v, b.v) }

// buildPostings fills the committed and aborted write-op postings, the
// duplicate-write list, and the per-key writer lists.
//
//mtc:hotpath — counting-sorted postings feeding every Writer/WritersOf lookup
func (ix *Index) buildPostings(h *History, opIDs []KeyID) {
	nk := ix.it.Len()

	// Committed writes grouped by key, in op order within a key: a stable
	// counting sort over the dense KeyIDs. After the scatter end[k] is the
	// end of key k's run, which starts at end[k-1].
	end := make([]int32, nk+1)
	var aborted []kvt
	pos := 0 // opIDs cursor, aligned with the nested op iteration
	for t := range h.Txns {
		txn := &h.Txns[t]
		for j, op := range txn.Ops {
			if op.Kind != OpWrite {
				continue
			}
			if k := opIDs[pos+j]; txn.Committed {
				end[k+1]++
			} else {
				aborted = append(aborted, kvt{k: k, v: op.Value, t: int32(t)}) //mtc:alloc-ok aborted writes are rare; growth here is off the common path
			}
		}
		pos += len(txn.Ops)
	}
	for k := 0; k < nk; k++ {
		end[k+1] += end[k]
	}
	byKey := make([]vt, end[nk])
	pos = 0
	for t := range h.Txns {
		txn := &h.Txns[t]
		for j, op := range txn.Ops {
			if op.Kind == OpWrite && txn.Committed {
				k := opIDs[pos+j]
				byKey[end[k]] = vt{v: op.Value, t: int32(t)}
				end[k]++
			}
		}
		pos += len(txn.Ops)
	}

	// One slot per distinct (key, value), after a stable value sort of
	// each run that does not already ascend. Op order survives both sorts,
	// so a run's first entry is the pair's first writer: the
	// BuildWriterIndex winner, without a claim pass.
	ix.slotOff = make([]int32, nk+1)
	ix.slotVal = make([]Value, 0, len(byKey))
	ix.slotTxn = make([]int32, 0, len(byKey))
	dup := false
	lo := int32(0)
	for k := 0; k < nk; k++ {
		run := byKey[lo:end[k]]
		lo = end[k]
		if !slices.IsSortedFunc(run, vt.compare) {
			slices.SortStableFunc(run, vt.compare)
		}
		for i, e := range run {
			if i > 0 && e.v == run[i-1].v {
				dup = true
				continue
			}
			ix.slotVal = append(ix.slotVal, e.v)
			ix.slotTxn = append(ix.slotTxn, e.t)
		}
		ix.slotOff[k+1] = int32(len(ix.slotVal))
	}
	if dup {
		// Claim slots in op order so dups lists the losing writes in op
		// order, as BuildWriterIndex does.
		claimed := make([]bool, len(ix.slotVal))
		pos = 0
		for t := range h.Txns {
			txn := &h.Txns[t]
			for j, op := range txn.Ops {
				if op.Kind != OpWrite || !txn.Committed {
					continue
				}
				if s := ix.slot(opIDs[pos+j], op.Value); !claimed[s] {
					claimed[s] = true
				} else {
					ix.dups = append(ix.dups, Op{Kind: OpWrite, Key: op.Key, Value: op.Value})
				}
			}
			pos += len(txn.Ops)
		}
	}

	// Aborted postings: existence lookups only; last writer wins.
	slices.SortStableFunc(aborted, kvt.compare)
	ix.abOff = make([]int32, nk+1)
	prevK, prevV := KeyID(-1), Value(0)
	for _, e := range aborted {
		if e.k == prevK && e.v == prevV {
			ix.abTxn[len(ix.abTxn)-1] = e.t // stable sort: last duplicate is the latest txn
			continue
		}
		prevK, prevV = e.k, e.v
		ix.abVal = append(ix.abVal, e.v)
		ix.abTxn = append(ix.abTxn, e.t)
		ix.abOff[e.k+1]++
	}
	for k := 0; k < nk; k++ {
		ix.abOff[k+1] += ix.abOff[k]
	}

	// Distinct committed writers per key, ascending.
	ix.writersOff = make([]int32, nk+1)
	ix.writersTxn = make([]int32, 0, len(ix.slotTxn))
	scratch := make([]int32, 0, 8)
	for k := 0; k < nk; k++ {
		ix.writersOff[k] = int32(len(ix.writersTxn))
		scratch = append(scratch[:0], ix.slotTxn[ix.slotOff[k]:ix.slotOff[k+1]]...)
		slices.Sort(scratch) // generic sort: no per-key interface boxing
		for i, w := range scratch {
			if i == 0 || scratch[i-1] != w {
				ix.writersTxn = append(ix.writersTxn, w)
			}
		}
	}
	ix.writersOff[nk] = int32(len(ix.writersTxn))
}

// resolveReads resolves every read-footprint entry to its committed
// writer once, for ReadWriters.
//
//mtc:hotpath — one postings search per footprint read, shared by every consumer
func (ix *Index) resolveReads() {
	ix.readTxn = make([]int32, len(ix.readKey))
	for i, k := range ix.readKey {
		ix.readTxn[i] = int32(ix.Writer(k, ix.readVal[i]))
	}
}

// slot returns the postings slot of (k, v), or -1 when no committed
// transaction wrote v to k.
func (ix *Index) slot(k KeyID, v Value) int32 {
	lo, hi := ix.slotOff[k], ix.slotOff[k+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if ix.slotVal[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < ix.slotOff[k+1] && ix.slotVal[lo] == v {
		return lo
	}
	return -1
}

// History returns the indexed history.
func (ix *Index) History() *History { return ix.h }

// NumTxns returns the number of transactions (committed and aborted).
func (ix *Index) NumTxns() int { return len(ix.h.Txns) }

// NumKeys returns the number of distinct keys in the history.
func (ix *Index) NumKeys() int { return ix.it.Len() }

// KeyName returns the interned name of id.
func (ix *Index) KeyName(id KeyID) Key { return ix.it.Name(id) }

// KeyNames returns every key name indexed by KeyID: the name table a
// dependency graph's arcs refer to (graph.NewBuilderNames). The slice is
// shared and must not be modified.
func (ix *Index) KeyNames() []string { return ix.it.names }

// KeyIDOf returns the id of k and whether the history touches it.
func (ix *Index) KeyIDOf(k Key) (KeyID, bool) { return ix.it.Lookup(k) }

// Reads returns transaction t's first-external-read footprint as
// parallel slices sorted by KeyID: the columnar form of Txn.Reads().
// The slices alias the shared arena and must not be mutated.
func (ix *Index) Reads(t int) ([]KeyID, []Value) {
	return ix.readKey[ix.readOff[t]:ix.readOff[t+1]], ix.readVal[ix.readOff[t]:ix.readOff[t+1]]
}

// Writes returns transaction t's final-write footprint as parallel
// slices sorted by KeyID: the columnar form of Txn.Writes().
func (ix *Index) Writes(t int) ([]KeyID, []Value) {
	return ix.writeKey[ix.writeOff[t]:ix.writeOff[t+1]], ix.writeVal[ix.writeOff[t]:ix.writeOff[t+1]]
}

// ReadWriters returns the committed writer of each entry of Reads(t),
// aligned with it: Writer(k, v) of the read, so -1 when no committed
// transaction wrote the value and t itself for a read of its own later
// write. The index resolves every read once when it is built; the slice
// aliases the shared arena and must not be mutated.
func (ix *Index) ReadWriters(t int) []int32 {
	return ix.readTxn[ix.readOff[t]:ix.readOff[t+1]]
}

// ReadKeys returns just the key column of transaction t's read
// footprint, for passes that re-walk reads without the values.
func (ix *Index) ReadKeys(t int) []KeyID {
	return ix.readKey[ix.readOff[t]:ix.readOff[t+1]]
}

// WriteVal returns the last value transaction t wrote to key k, if any.
func (ix *Index) WriteVal(t int, k KeyID) (Value, bool) {
	keys, vals := ix.Writes(t)
	if i := searchKey(keys, k); i >= 0 {
		return vals[i], true
	}
	return 0, false
}

// searchKey finds k in a sorted KeyID column, or -1.
func searchKey(keys []KeyID, k KeyID) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(keys) && keys[lo] == k {
		return lo
	}
	return -1
}

// Writer returns the committed transaction that wrote value v to key k,
// or -1: the columnar WriterIndex.Writer.
func (ix *Index) Writer(k KeyID, v Value) int {
	if s := ix.slot(k, v); s >= 0 {
		return int(ix.slotTxn[s])
	}
	return -1
}

// WriterByName is Writer for un-interned callers; unknown keys have no
// writer.
func (ix *Index) WriterByName(x Key, v Value) int {
	if k, ok := ix.it.Lookup(x); ok {
		return ix.Writer(k, v)
	}
	return -1
}

// AbortedWriter reports whether some aborted transaction wrote v to k.
func (ix *Index) AbortedWriter(k KeyID, v Value) bool {
	lo, hi := ix.abOff[k], ix.abOff[k+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if ix.abVal[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < ix.abOff[k+1] && ix.abVal[lo] == v
}

// WritersOf returns the distinct committed writers of key k, ascending.
// The slice aliases the shared arena and must not be mutated.
func (ix *Index) WritersOf(k KeyID) []int32 {
	return ix.writersTxn[ix.writersOff[k]:ix.writersOff[k+1]]
}

// NumReads returns the total number of read-footprint entries across
// every transaction: the length of the shared read column. Derivation
// passes size their per-read scratch arenas with it.
func (ix *Index) NumReads() int { return len(ix.readKey) }

// NumWriterSlots returns the total number of (key, distinct committed
// writer) pairs: the index space of WriterSlot.
func (ix *Index) NumWriterSlots() int { return len(ix.writersTxn) }

// WriterSlot returns a dense history-wide id for the (key, writer)
// pair, or -1 when w is not a committed writer of k. Dense per-pair
// state (like divergence tracking) indexes a flat array with it instead
// of allocating a map keyed by (writer, key).
func (ix *Index) WriterSlot(k KeyID, w int32) int {
	lo, hi := ix.writersOff[k], ix.writersOff[k+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if ix.writersTxn[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < ix.writersOff[k+1] && ix.writersTxn[lo] == w {
		return int(lo)
	}
	return -1
}

// Dups lists committed write operations that violated the unique-value
// assumption, in operation order, first writer retained — identical to
// BuildWriterIndex's second return.
func (ix *Index) Dups() []Op { return ix.dups }
