package graph

import "context"

// Closure is the cached all-pairs reachability relation of a DAG: one
// Bitset row per node, row[v] holding every node reachable from v
// (reflexively). Rows are computed once and shared; Reach answers in
// O(1). The table costs n²/64 words — for graphs where only a few rows
// are ever queried, prefer ReachRows.
type Closure struct {
	rows []Bitset
}

// Reach reports whether v is reachable from u (Reach(u, u) is true).
func (c *Closure) Reach(u, v int) bool { return c.rows[u].Test(v) }

// closurePoll is the number of rows filled between two polls of ctx.
const closurePoll = 256

// NewClosure computes the transitive closure of g. The second result is
// false when the graph is cyclic — no closure exists then. Rows are
// filled in reverse topological order, so each row is the word-level
// union of its successors' finished rows. ctx is polled every
// closurePoll rows, so a deadline stops the O(n·m/64) work.
func NewClosure(ctx context.Context, g *Graph) (*Closure, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	order, ok := g.TopoSort()
	if !ok {
		return nil, false, nil
	}
	n := g.Len()
	c := &Closure{rows: make([]Bitset, n)}
	for i := n - 1; i >= 0; i-- {
		if i%closurePoll == 0 {
			if err := ctx.Err(); err != nil {
				return nil, true, err
			}
		}
		v := order[i]
		row := NewBitset(n)
		row.Set(v)
		for _, e := range g.Out(v) {
			// A successor already in the row got there through an earlier
			// one that reaches it, whose finished row holds all of this
			// one's.
			if !row.Test(int(e.To)) {
				row.UnionWith(c.rows[e.To])
			}
		}
		c.rows[v] = row
	}
	return c, true, nil
}

// ReachRows answers a batch of reachability queries without the full
// closure: ReachRows(ctx, g, sources)[i] is the set of nodes reachable
// from sources[i], including itself, found by one iterative depth-first
// traversal per source over a stack reused across the batch. g need not
// be acyclic. It is the sparse counterpart of Closure, for when only a
// few rows are needed and the O(n²/64) table is not worth materializing.
// ctx is polled between sources; on cancellation the context's error is
// returned and the rows are meaningless.
func ReachRows(ctx context.Context, g *Graph, sources []int) ([]Bitset, error) {
	rows := make([]Bitset, len(sources))
	var stack []int
	for i, src := range sources {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seen := NewBitset(g.Len())
		seen.Set(src)
		stack = append(stack[:0], src)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.Out(v) {
				if to := int(e.To); !seen.Test(to) {
					seen.Set(to)
					stack = append(stack, to)
				}
			}
		}
		rows[i] = seen
	}
	return rows, nil
}
