package graph

import "context"

// Closure is the cached all-pairs reachability relation of a DAG: one
// Bitset row per node, row[v] holding every node reachable from v
// (reflexively). Rows are computed once and shared; Reach answers in
// O(1). The table costs n²/64 words — for graphs where only a few rows
// are ever queried, prefer ReachPool.
type Closure struct {
	rows []Bitset
}

// Reach reports whether v is reachable from u (Reach(u, u) is true).
func (c *Closure) Reach(u, v int) bool { return c.rows[u].Test(v) }

// NewClosure computes the transitive closure of g with par workers
// (par <= 0 means GOMAXPROCS). The second result is false when the graph
// is cyclic — no closure exists then. The computation runs in reverse
// topological order, so each row is the word-level union of its
// successors' finished rows; nodes of equal depth have no path between
// them and are filled in parallel. ctx is polled between batches, so a
// deadline stops the O(n·m/64) work.
func NewClosure(ctx context.Context, g *Graph, par int) (*Closure, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	order, ok := g.TopoSort()
	if !ok {
		return nil, false, nil
	}
	// depth[v] is the longest path from v over out edges: all rows of one
	// depth depend only on strictly smaller depths, so each depth is one
	// parallel batch. Iterating the topological order backwards visits
	// every successor before its predecessors.
	n := g.Len()
	depth := make([]int, n)
	maxDepth := 0
	for i := n - 1; i >= 0; i-- {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
		}
		v := order[i]
		d := 0
		for _, e := range g.Out(v) {
			if depth[e.To] >= d {
				d = depth[e.To] + 1
			}
		}
		depth[v] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	buckets := make([][]int, maxDepth+1)
	for v := 0; v < n; v++ {
		buckets[depth[v]] = append(buckets[depth[v]], v)
	}
	c := &Closure{rows: make([]Bitset, n)}
	for _, bucket := range buckets {
		b := bucket
		err := ParallelDo(ctx, par, len(b), func(i int) {
			v := b[i]
			row := NewBitset(n)
			row.Set(v)
			for _, e := range g.Out(v) {
				// A successor already in the row got there through an
				// earlier one that reaches it, whose finished row holds
				// all of this one's.
				if !row.Test(e.To) {
					row.UnionWith(c.rows[e.To])
				}
			}
			c.rows[v] = row
		})
		if err != nil {
			return nil, true, err
		}
	}
	return c, true, nil
}
