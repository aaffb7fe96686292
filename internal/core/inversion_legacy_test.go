package core

import (
	"cmp"
	"slices"

	"mtc/internal/graph"
	"mtc/internal/history"
)

// legacyInversion is the rank-based inversion pass Deps.Inversion
// replaced, kept as the oracle its witnesses are held to: every
// transaction's start and finish are ranked by one sort of the 2n
// real-time events (legacyRTRanks), and the DFS folds each node's
// minimum descendant finish rank. d.Graph must be acyclic.
func legacyInversion(d *Deps) []graph.Edge {
	g := d.Graph
	start, finish := legacyRTRanks(d.Index.History())
	const inf = int32(1) << 30
	n := g.Len()
	mnf := make([]int32, n)
	via := make([]int32, n)
	state := make([]uint8, n)
	var stack []int32
	for s := 0; s < n; s++ {
		if state[s] != 0 {
			continue
		}
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v < 0 {
				u := ^v
				m := inf
				for i, e := range g.Out(int(u)) {
					cm := mnf[e.To]
					if f := finish[e.To]; f >= 0 && f < cm {
						cm = f
					}
					if cm < m {
						m, via[u] = cm, int32(i)
					}
				}
				mnf[u] = m
				state[u] = 2
				if r := start[u]; r >= 0 && m < r {
					return legacyInversionWitness(g, int(u), m, finish, via)
				}
				continue
			}
			if state[v] != 0 {
				continue
			}
			state[v] = 1
			stack = append(stack, ^v)
			for _, e := range g.Out(int(v)) {
				if state[e.To] == 0 {
					stack = append(stack, e.To)
				}
			}
		}
	}
	return nil
}

func legacyInversionWitness(g *graph.Graph, s int, m int32, finish, via []int32) []graph.Edge {
	var cycle []graph.Edge
	for v := s; ; {
		a := g.Out(v)[via[v]]
		cycle = append(cycle, g.Edge(a))
		if v = int(a.To); finish[v] == m {
			return append(cycle, graph.Edge{From: v, To: s, Kind: graph.RT})
		}
	}
}

// legacyRTRanks returns each transaction's start and finish positions in
// the sorted sequence of real-time events, or -1 for an untimed one. At
// equal timestamps starts sort before finishes, then by transaction.
func legacyRTRanks(h *history.History) (start, finish []int32) {
	type event struct {
		time    int64
		txn     int32
		isStart bool
	}
	events := make([]event, 0, 2*len(h.Txns))
	start = make([]int32, len(h.Txns))
	finish = make([]int32, len(h.Txns))
	for i := range h.Txns {
		start[i], finish[i] = -1, -1
		if t := &h.Txns[i]; t.Timed() {
			events = append(events, event{t.Start, int32(i), true}, event{t.Finish, int32(i), false})
		}
	}
	slices.SortFunc(events, func(a, b event) int {
		if c := cmp.Compare(a.time, b.time); c != 0 {
			return c
		}
		if a.isStart != b.isStart {
			if a.isStart {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.txn, b.txn)
	})
	for i, ev := range events {
		if ev.isStart {
			start[ev.txn] = int32(i)
		} else {
			finish[ev.txn] = int32(i)
		}
	}
	return start, finish
}
