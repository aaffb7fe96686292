package graph

import "iter"

// Slab chunks double from slabChunkMin records to 1<<slabChunkShift, so
// a structure over a handful of transactions costs a few kilobytes (the
// sharded runner holds one per component) and a long stream one
// allocation per 1024 records.
const (
	slabChunkMin   = 16
	slabChunkShift = 10
)

// Slab hands out records of one type from chunks that never move, so a
// pointer into it stays valid until Reset. A record's id is its chunk
// index and offset packed into an int32, plus one so that the zero value
// of a field holding an id means "none". Nothing is handed out twice
// between two resets, and Reset keeps the chunks: a slab refilled to the
// size it had stops allocating. The zero Slab is empty and ready.
type Slab[T any] struct {
	chunks [][]T // len: records handed out; cap: the chunk's size
	used   int   // chunks[:used] hold records, the rest wait for reuse
}

// next moves on to a chunk with room for need records: the next one a
// reset left behind if it is large enough, otherwise a new one.
//
//mtc:hotpath — the one allocation of the per-commit path
func (s *Slab[T]) next(need int) {
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

// Alloc returns the next record and its id. The record holds whatever an
// earlier fill left there; the caller overwrites it whole.
//
//mtc:hotpath — one chunk per 1024 records, nothing per record
func (s *Slab[T]) Alloc() (int32, *T) {
	if s.used == 0 || len(s.chunks[s.used-1]) == cap(s.chunks[s.used-1]) {
		s.next(1)
	}
	c := s.chunks[s.used-1]
	i := len(c)
	c = c[:i+1]
	s.chunks[s.used-1] = c
	return int32((s.used-1)<<slabChunkShift|i) + 1, &c[i]
}

// At returns the record Alloc handed out under id.
func (s *Slab[T]) At(id int32) *T {
	id--
	return &s.chunks[id>>slabChunkShift][id&(1<<slabChunkShift-1)]
}

// All iterates the records handed out since the last Reset, in the order
// Alloc handed them out: one sequential walk over the chunks.
func (s *Slab[T]) All() iter.Seq[*T] {
	return func(yield func(*T) bool) {
		for _, c := range s.chunks[:s.used] {
			for i := range c {
				if !yield(&c[i]) {
					return
				}
			}
		}
	}
}

// Cut returns n consecutive records with no spare capacity, for the
// caller to overwrite. A slab is used through Alloc or through Cut, not
// both: a run longer than a chunk gets a chunk of its own size, which
// ids cannot address.
//
//mtc:hotpath — one chunk per 1024 records, nothing per run
func (s *Slab[T]) Cut(n int) []T {
	if s.used == 0 || cap(s.chunks[s.used-1])-len(s.chunks[s.used-1]) < n {
		s.next(n)
	}
	c := s.chunks[s.used-1]
	i := len(c)
	s.chunks[s.used-1] = c[:i+n]
	return c[i : i+n : i+n]
}

// Reset forgets every record and keeps the chunks.
func (s *Slab[T]) Reset() {
	for i := range s.chunks[:s.used] {
		s.chunks[i] = s.chunks[i][:0]
	}
	s.used = 0
}
