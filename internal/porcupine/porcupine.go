// Package porcupine re-implements the Porcupine linearizability checker
// the paper uses as the SSER baseline (Section V-B): the Wing-Gong/Lowe
// (WGL) search with memoization over (linearized-set, state) pairs, plus
// P-compositionality — the history is partitioned per object and each
// partition checked independently, which is the locality principle of
// Herlihy and Wing specialized to registers.
//
// Unlike MTC's VLLWT (linear time), WGL explores permutations of
// overlapping operations and backtracks, so its cost grows with the
// concurrency level — exactly the contrast Figure 9 measures.
package porcupine

import (
	"context"
	"hash/fnv"
	"sort"

	"mtc/internal/core"
	"mtc/internal/history"
)

// state is the register automaton state: exists=false models the state
// before the insert-if-not-exists.
type state struct {
	exists bool
	val    history.Value
}

// step applies op to st. ok reports whether the operation is legal in st.
func step(st state, op core.LWT) (state, bool) {
	switch op.Kind {
	case core.LWTInsert:
		if st.exists {
			return st, false
		}
		return state{exists: true, val: op.Write}, true
	case core.LWTRW:
		if !st.exists || st.val != op.Read {
			return st, false
		}
		return state{exists: true, val: op.Write}, true
	default:
		return st, false
	}
}

// Check reports whether the lightweight-transaction history is
// linearizable, checking each object's sub-history independently.
func Check(ops []core.LWT) bool {
	ok, _ := CheckCtx(context.Background(), ops)
	return ok
}

// CheckCtx is Check under a context: the WGL search polls ctx every few
// thousand steps, so a deadline bounds even its worst-case exponential
// backtracking. The verdict is only meaningful when the error is nil.
func CheckCtx(ctx context.Context, ops []core.LWT) (bool, error) {
	byKey := map[history.Key][]core.LWT{}
	for _, o := range ops {
		byKey[o.Key] = append(byKey[o.Key], o)
	}
	for _, sub := range byKey {
		ok, err := checkKey(ctx, sub)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// entry is a call or return event in the WGL entry list.
type entry struct {
	op   int // index into ops
	call bool
	time int64
	prev *entry
	next *entry
}

// bitset is a fixed-capacity bitmask over operation indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)   { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) clear(i int) { b[i/64] &^= 1 << (uint(i) % 64) }

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

func (b bitset) hash(st state) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range b {
		for i := 0; i < 8; i++ {
			buf[i] = byte(w >> (8 * i))
		}
		h.Write(buf[:])
	}
	v := uint64(st.val)
	if !st.exists {
		v = ^uint64(0)
	}
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// cacheEntry stores a visited (linearized-set, state) configuration.
type cacheEntry struct {
	bits bitset
	st   state
}

// checkKey runs the WGL search on a single object's operations.
func checkKey(ctx context.Context, ops []core.LWT) (bool, error) {
	n := len(ops)
	if n == 0 {
		return true, nil
	}
	// Build the event list: 2n entries sorted by time; returns before
	// calls at equal timestamps (an operation that finishes exactly when
	// another starts precedes it).
	type event struct {
		op   int
		call bool
		time int64
	}
	events := make([]event, 0, 2*n)
	for i, o := range ops {
		events = append(events, event{op: i, call: true, time: o.Start})
		events = append(events, event{op: i, call: false, time: o.Finish})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].time != events[j].time {
			return events[i].time < events[j].time
		}
		// Returns first so touching intervals do not overlap.
		return !events[i].call && events[j].call
	})
	// Doubly-linked list with a sentinel head.
	head := &entry{op: -1}
	cur := head
	callEnt := make([]*entry, n)
	retEnt := make([]*entry, n)
	for _, ev := range events {
		e := &entry{op: ev.op, call: ev.call, time: ev.time}
		e.prev = cur
		cur.next = e
		cur = e
		if ev.call {
			callEnt[ev.op] = e
		} else {
			retEnt[ev.op] = e
		}
	}

	lift := func(op int) {
		for _, e := range []*entry{callEnt[op], retEnt[op]} {
			e.prev.next = e.next
			if e.next != nil {
				e.next.prev = e.prev
			}
		}
	}
	unlift := func(op int) {
		for _, e := range []*entry{retEnt[op], callEnt[op]} {
			e.prev.next = e
			if e.next != nil {
				e.next.prev = e
			}
		}
	}

	type frame struct {
		op    int
		prior state
	}
	var (
		stack      []frame
		st         = state{}
		linearized = newBitset(n)
		cache      = map[uint64][]cacheEntry{}
		remaining  = n
	)
	seen := func(b bitset, s state) bool {
		h := b.hash(s)
		for _, ce := range cache[h] {
			if ce.st == s && ce.bits.equal(b) {
				return true
			}
		}
		cache[h] = append(cache[h], cacheEntry{bits: b.clone(), st: s})
		return false
	}

	e := head.next
	steps := 0
	for remaining > 0 {
		if steps++; steps&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		if e != nil && e.call {
			if ns, ok := step(st, ops[e.op]); ok {
				// Tentatively linearize e.op.
				linearized.set(e.op)
				if !seen(linearized, ns) {
					stack = append(stack, frame{op: e.op, prior: st})
					st = ns
					remaining--
					lift(e.op)
					e = head.next
					continue
				}
				linearized.clear(e.op)
			}
			e = e.next
			continue
		}
		// The end of the list without linearizing everything, or a return
		// entry (every operation that returned must already be linearized
		// on this path): backtrack.
		if len(stack) == 0 {
			return false, nil
		}
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st = f.prior
		linearized.clear(f.op)
		remaining++
		unlift(f.op)
		e = callEnt[f.op].next
	}
	return true, nil
}
