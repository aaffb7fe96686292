package core

import (
	"iter"

	"mtc/internal/graph"
)

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
func push[T any](s *graph.Slab[cell[T]], l *list, v T) {
	id, c := s.Alloc()
	*c = cell[T]{v: v}
	if l.tail == 0 {
		l.head = id
	} else {
		s.At(l.tail).next = id
	}
	l.tail = id
}

// each iterates l in insertion order, each value with its cell's id: ids
// ascend with arrival until the slab is reset, so a list's ids ascend too.
func each[T any](s *graph.Slab[cell[T]], l list) iter.Seq2[int32, T] {
	return func(yield func(int32, T) bool) {
		var c *cell[T]
		for id := l.head; id != 0; id = c.next {
			c = s.At(id)
			if !yield(id, c.v) {
				return
			}
		}
	}
}

// arenas is everything an Incremental holds per transaction and per edge,
// and the lists of its slots. There are two sets. Add allocates from the
// current one and never reuses anything in it, so a record's address and a
// list's cells are stable for the whole epoch. Compact copies what
// survives — the live slots' lists, the kept transaction records with
// their write sets and SI lists, the first pairs of composed edges, the
// rebuilt graph — into the spare set, swaps the two, and resets the one it
// just left: the next epoch but one fills the same chunks again, so a
// windowed stream that has reached its steady size allocates nothing, and
// no long-lived record can pin a chunk of dead ones, because nothing
// outlives the epoch after the one it was copied in. The slot records are
// not part of the set: they stay where they are (Incremental.records) and
// only the lists hanging off them move.
type arenas struct {
	topo   *graph.Online
	txns   []txnState                  // indexed by node id
	ids    graph.Slab[cell[int32]]     // slot.readers and slot.parked
	deps   graph.Slab[cell[graph.Arc]] // txnState.baseIn and txnState.rwOut
	writes graph.Slab[write]           // write sets, by cut
	// SI only: the first pair of each composed edge the last compaction
	// kept (carryWitnesses), and the id of the last deps cell it copied;
	// the cells above mark arrived in this epoch.
	witness map[composedKey][2]graph.Arc
	mark    int32
}

func newArenas() arenas {
	// The record table starts as small as a slab's first chunk.
	return arenas{topo: graph.NewOnline(), txns: make([]txnState, 0, 16)}
}

// reset empties the slabs for the epoch after next. The graph and the
// transaction records stay as they are until Compact loads over them.
func (a *arenas) reset() {
	a.ids.Reset()
	a.deps.Reset()
	a.writes.Reset()
}
