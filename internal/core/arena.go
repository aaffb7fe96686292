package core

import (
	"iter"

	"mtc/internal/graph"
)

// Slab chunks double from slabChunkMin records to 1<<slabChunkShift, so
// an Incremental over a handful of transactions costs a few kilobytes
// (the sharded runner holds one per component) and a long stream one
// allocation per 1024 records.
const (
	slabChunkMin   = 16
	slabChunkShift = 10
)

// slab hands out records of one type from chunks that never move, so a
// pointer into it stays valid until reset. A record's id is its chunk
// index and offset packed into an int32, plus one so that the zero value
// of a field holding an id means "none". Nothing is handed out twice
// between two resets: a record is dead when the epoch that made it is.
type slab[T any] struct {
	chunks [][]T // len: records handed out; cap: the chunk's size
	used   int   // chunks[:used] hold records, the rest wait for reuse
}

// next moves on to a chunk with room for need records: the next one a
// reset left behind if it is large enough, otherwise a new one.
//
//mtc:hotpath — the one allocation of the per-commit path
func (s *slab[T]) next(need int) {
	for s.used < len(s.chunks) {
		s.used++
		if cap(s.chunks[s.used-1]) >= need {
			return
		}
	}
	size := slabChunkMin
	if s.used > 0 {
		size = min(2*cap(s.chunks[s.used-1]), 1<<slabChunkShift)
	}
	s.chunks = append(s.chunks, make([]T, 0, max(size, need))) //mtc:alloc-ok one chunk per 1024 records
	s.used++
}

// alloc returns the next record and its id. The record holds whatever an
// earlier epoch left there; the caller overwrites it whole.
//
//mtc:hotpath — one chunk per 1024 records, nothing per record
func (s *slab[T]) alloc() (int32, *T) {
	if s.used == 0 || len(s.chunks[s.used-1]) == cap(s.chunks[s.used-1]) {
		s.next(1)
	}
	c := s.chunks[s.used-1]
	i := len(c)
	c = c[:i+1]
	s.chunks[s.used-1] = c
	return int32((s.used-1)<<slabChunkShift|i) + 1, &c[i]
}

// at returns the record alloc handed out under id.
func (s *slab[T]) at(id int32) *T {
	id--
	return &s.chunks[id>>slabChunkShift][id&(1<<slabChunkShift-1)]
}

// cut returns n consecutive records with no spare capacity, for the
// caller to overwrite. A slab is used through alloc or through cut, not
// both: a run longer than a chunk gets a chunk of its own size, which
// ids cannot address.
//
//mtc:hotpath — one chunk per 1024 records, nothing per run
func (s *slab[T]) cut(n int) []T {
	if s.used == 0 || cap(s.chunks[s.used-1])-len(s.chunks[s.used-1]) < n {
		s.next(n)
	}
	c := s.chunks[s.used-1]
	i := len(c)
	s.chunks[s.used-1] = c[:i+n]
	return c[i : i+n : i+n]
}

// reset forgets every record and keeps the chunks.
func (s *slab[T]) reset() {
	for i := range s.chunks[:s.used] {
		s.chunks[i] = s.chunks[i][:0]
	}
	s.used = 0
}

// list is a FIFO of values threaded through a slab of cells: the ids of
// its first and last cell, zero while it is empty. It replaces a slice
// per record — appending is one cell, never a reallocation, and the
// cells of all lists of one element type share their chunks.
type list struct{ head, tail int32 }

type cell[T any] struct {
	v    T
	next int32
}

// push appends v to l.
//
//mtc:hotpath — one cell from the slab
func push[T any](s *slab[cell[T]], l *list, v T) {
	id, c := s.alloc()
	*c = cell[T]{v: v}
	if l.tail == 0 {
		l.head = id
	} else {
		s.at(l.tail).next = id
	}
	l.tail = id
}

// each iterates l in insertion order.
func each[T any](s *slab[cell[T]], l list) iter.Seq[T] {
	return func(yield func(T) bool) {
		var c *cell[T]
		for id := l.head; id != 0; id = c.next {
			c = s.at(id)
			if !yield(c.v) {
				return
			}
		}
	}
}

// arenas is everything an Incremental holds per transaction, per version
// and per edge. There are two sets. Add allocates from the current one
// and never reuses anything in it, so a record's address and a list's
// cells are stable for the whole epoch. Compact copies what survives —
// live slots, their lists, the kept transaction records with their write
// sets and SI lists, the witnesses, the rebuilt graph — into the spare
// set, swaps the two, and resets the one it just left: the next epoch
// but one fills the same chunks again, so a windowed stream that has
// reached its steady size allocates nothing, and no long-lived record
// can pin a chunk of dead ones, because nothing outlives the epoch
// after the one it was copied in.
type arenas struct {
	topo    *graph.Online
	txns    []txnState // indexed by node id
	records slab[slot]
	ids     slab[cell[int]]        // slot.readers and slot.parked
	deps    slab[cell[graph.Edge]] // txnState.baseIn and txnState.rwOut
	writes  slab[write]            // write sets, by cut
	// SI only: the constituents of every composed edge in topo.
	witness map[composedKey][2]graph.Edge
}

func newArenas(lvl Level) arenas {
	a := arenas{topo: graph.NewOnline(), txns: make([]txnState, 0, slabChunkMin)}
	if lvl == SI {
		a.witness = make(map[composedKey][2]graph.Edge)
	}
	return a
}

// reset empties the slabs for the epoch after next. The graph and the
// transaction records stay as they are until Compact loads over them.
func (a *arenas) reset() {
	a.records.reset()
	a.ids.reset()
	a.deps.reset()
	a.writes.reset()
}
