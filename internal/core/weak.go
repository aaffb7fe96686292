package core

import (
	"context"
	"slices"

	"mtc/internal/graph"
	"mtc/internal/history"
)

// checkRC is the RC rung. G0/G1a/G1b are the pre-check's anomalies;
// what remains is G1c — a cycle of write/read dependencies alone — so
// the rung filters the shared graph down to WR ∪ WW and searches that.
func (d *Deps) checkRC() Result {
	res := Result{Level: RC, NumTxns: d.Index.NumTxns(), NumEdges: d.Graph.NumEdges()}
	res.Cycle = d.Graph.Subgraph(1<<graph.WR | 1<<graph.WW).FindCycle()
	res.OK = res.Cycle == nil
	return res
}

// checkRA is the RA rung: RC's G1c plus fractured reads.
func (d *Deps) checkRA(rc Result) Result {
	res := Result{Level: RA, NumTxns: d.Index.NumTxns(), NumEdges: d.Graph.NumEdges()}
	if !rc.OK {
		res.Cycle = rc.Cycle
		res.Anomalies = rc.Anomalies
		return res
	}
	if as := d.fracturedReads(); len(as) > 0 {
		res.Anomalies = as
		return res
	}
	res.OK = true
	return res
}

// fracturedReads scans every committed transaction's footprint for
// RAMP's atomic-visibility violation: the transaction reads key x from
// writer W, W also wrote key y, and the transaction's read of y
// observed a version STRICTLY OLDER than W's in y's version order — it
// saw part of W's update and provably missed the rest. Versions on a
// divergent branch are incomparable and never flagged (that situation
// is divergence, rejected at the SI rung), which keeps the lattice
// monotone: every fractured read forces an RW edge back into the
// reader's causal past, so RA failures here are causal failures too.
func (d *Deps) fracturedReads() []history.Anomaly {
	ix := d.Index
	f := d.forest()
	h := ix.History()
	var out []history.Anomaly
	for t := range h.Txns {
		if !h.Txns[t].Committed {
			continue
		}
		rk, rv := ix.Reads(t)
		if len(rk) < 2 {
			continue
		}
		rw := ix.ReadWriters(t)
		for j, y := range rk {
			v := int(rw[j])
			if v < 0 || v == t {
				continue
			}
			for i := range rk {
				if i == j || rk[i] == y {
					continue
				}
				w := int(rw[i])
				if w < 0 || w == t || w == v {
					continue
				}
				if _, writes := ix.WriteVal(w, y); !writes {
					continue
				}
				if f.strictlyBefore(y, v, w) {
					out = append(out, history.Anomaly{
						Kind: history.FracturedRead, Txn: t, Key: ix.KeyName(y), Value: rv[j],
					})
					break
				}
			}
		}
	}
	return out
}

// checkCausal is the CAUSAL rung. The causal order CO is the transitive
// closure of SO ∪ WR; the history is causally consistent iff CO is a
// partial order (acyclic) and no transaction misses a causally prior
// write: an anti-dependency T -RW-> S with S ~>CO T means T read a
// version that S — already in T's causal past — had overwritten. Both
// violations surface as a cycle witness: the CO path closed by the RW
// edge.
func (d *Deps) checkCausal(ctx context.Context) (Result, error) {
	res := Result{Level: CAUSAL, NumTxns: d.Index.NumTxns(), NumEdges: d.Graph.NumEdges()}
	co := d.Graph.Subgraph(1<<graph.SO | 1<<graph.WR)
	if cycle := co.FindCycle(); cycle != nil {
		res.Cycle = cycle
		return res, nil
	}
	rw, closed, err := firstClosedRW(ctx, d.Graph, co)
	if err != nil {
		return Result{}, err
	}
	if closed {
		res.Cycle = liftCycle(co, rw)
	}
	res.OK = !closed
	return res, nil
}

// firstClosedRW returns the first RW arc of g — by source, then out-list
// position — whose target reaches its source in the acyclic co, and
// whether there is one. If S reaches T in CO, S precedes T in every
// topological order, so only an arc T -RW-> S with pos[S] <= pos[T] can
// close (equal for a self-loop): those candidates are collected once, in
// scan order. Reachability is bit-parallel: the candidates' distinct
// targets are taken 64 at a time, each node holds one word whose bit i
// says the block's target i reaches it (reflexively), and one pass in
// topological order, over just the span between the block's earliest
// target and its latest source, ORs every word into its CO successors.
// That is O(n) words in O(n·m/64) time, where an all-pairs closure would
// hold n²/8 bytes: gigabytes at the transaction counts a job admits. ctx
// is polled once per block.
func firstClosedRW(ctx context.Context, g, co *graph.Graph) (graph.Arc, bool, error) {
	n := g.Len()
	order, _ := co.TopoSort()
	pos := make([]int32, n)
	for i, v := range order {
		pos[v] = int32(i)
	}
	// col[t] is candidate target t's bit column, numbered in scan order;
	// -1 for a node no candidate targets. targets inverts it, blockAt[b]
	// is the index of the first candidate into block b (no candidate
	// before it targets the block) and span[b] the order positions its
	// sweep covers.
	col := make([]int32, n)
	for i := range col {
		col[i] = -1
	}
	var (
		cands   []graph.Arc
		targets []int32
		blockAt []int
		span    [][2]int32
	)
	//mtc:cancellation-ok one linear scan of the arcs; the blocks below poll ctx
	for u := 0; u < n; u++ {
		for _, a := range g.Out(u) {
			if a.Kind != graph.RW || pos[a.To] > pos[a.From] {
				continue
			}
			if col[a.To] < 0 {
				if len(targets)%64 == 0 {
					blockAt = append(blockAt, len(cands))
					span = append(span, [2]int32{pos[a.To], pos[a.From]})
				}
				col[a.To] = int32(len(targets))
				targets = append(targets, a.To)
			}
			s := &span[col[a.To]/64]
			s[0], s[1] = min(s[0], pos[a.To]), max(s[1], pos[a.From])
			cands = append(cands, a)
		}
	}
	reach := make([]uint64, n)
	var first graph.Arc
	best := len(cands) // index of the first closed candidate so far
	// A block can only improve on an earlier block's find by a candidate
	// scanned before it, so the blocks stop once they start after it.
	for lo := 0; lo < len(targets) && blockAt[lo/64] < best; lo += 64 {
		if err := ctx.Err(); err != nil {
			return graph.Arc{}, false, err
		}
		block := targets[lo:min(lo+64, len(targets))]
		// Nothing before the span holds a bit of the block, and nothing
		// after it is read; words written past it are cleared by the
		// block whose span covers them.
		sweep := order[span[lo/64][0] : span[lo/64][1]+1]
		for _, v := range sweep {
			reach[v] = 0
		}
		for i, t := range block {
			reach[t] = 1 << i
		}
		for _, v := range sweep {
			if m := reach[v]; m != 0 {
				for _, a := range co.Out(v) {
					reach[a.To] |= m
				}
			}
		}
		for p, a := range cands[:best] {
			if c := int(col[a.To]) - lo; c >= 0 && c < len(block) && reach[a.From]>>c&1 != 0 {
				first, best = a, p
				break
			}
		}
	}
	return first, best < len(cands), nil
}

// liftCycle materializes the causal counterexample for an RW arc whose
// target reaches its source in CO: the shortest CO path rw.To ~> rw.From
// (BFS) followed by the RW edge itself, a closed cycle of real edges,
// rendered through co's name table (g's, which co shares).
func liftCycle(co *graph.Graph, rw graph.Arc) []graph.Edge {
	n := co.Len()
	parent := make([]graph.Arc, n)
	seen := make([]bool, n)
	queue := make([]int32, 0, 64)
	queue = append(queue, rw.To)
	seen[rw.To] = true
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		if u == rw.From {
			break
		}
		for _, a := range co.Out(int(u)) {
			if !seen[a.To] {
				seen[a.To] = true
				parent[a.To] = a
				queue = append(queue, a.To)
			}
		}
	}
	if !seen[rw.From] {
		// Unreachable contradicts the reachability query; degrade to the
		// bare RW edge rather than panic.
		return []graph.Edge{co.Edge(rw)}
	}
	var path []graph.Edge
	for v := rw.From; v != rw.To; v = parent[v].From {
		path = append(path, co.Edge(parent[v]))
	}
	slices.Reverse(path)
	return append(path, co.Edge(rw))
}

// forest returns the per-key version forest, building it on first use.
func (d *Deps) forest() *wwForest {
	if d.f == nil {
		d.f = newWWForest(d.Index, d.Graph)
	}
	return d.f
}

// wwForest answers ancestor queries over each key's version order in
// O(1). The derivation emits a WW edge only for RMW readers, so every
// key's versions form a forest: parent = the version the writer read
// and replaced. Preorder intervals (tin, tout) from an iterative DFS
// decide ancestry; versions on divergent branches are incomparable.
// Slots reuse the index's dense (key, writer) numbering. The forest is
// read off the derived graph's WW edges, so it costs nothing until a
// weak rung or the guarantee scan asks for it: each WW arc's Obj is the
// KeyID of its key, since core derives the graph over the index's name
// table.
type wwForest struct {
	ix     *history.Index
	parent []int32
	tin    []int32
	tout   []int32
}

func newWWForest(ix *history.Index, g *graph.Graph) *wwForest {
	ns := ix.NumWriterSlots()
	f := &wwForest{
		ix:     ix,
		parent: make([]int32, ns),
		tin:    make([]int32, ns),
		tout:   make([]int32, ns),
	}
	for i := range f.parent {
		f.parent[i] = -1
	}
	cnt := make([]int32, ns+1)
	for u := 0; u < g.Len(); u++ {
		for _, e := range g.Out(u) {
			if e.Kind != graph.WW {
				continue
			}
			k := history.KeyID(e.Obj)
			sp := ix.WriterSlot(k, e.From)
			sc := ix.WriterSlot(k, e.To)
			if sp < 0 || sc < 0 || f.parent[sc] >= 0 {
				continue // repeated reads re-emit the same WW edge; link once
			}
			f.parent[sc] = int32(sp)
			cnt[sp+1]++
		}
	}
	for i := 0; i < ns; i++ {
		cnt[i+1] += cnt[i]
	}
	children := make([]int32, cnt[ns])
	fill := make([]int32, ns)
	copy(fill, cnt[:ns])
	for sc, sp := range f.parent {
		if sp >= 0 {
			children[fill[sp]] = int32(sc)
			fill[sp]++
		}
	}
	var timer int32
	stack := make([]int32, 0, 64)
	for s := 0; s < ns; s++ {
		if f.parent[s] >= 0 {
			continue
		}
		// Two-phase DFS: a node is pushed once as itself and once as
		// ^v (post-visit marker) to stamp tout after its subtree.
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v < 0 {
				f.tout[^v] = timer
				continue
			}
			f.tin[v] = timer
			timer++
			stack = append(stack, ^v)
			for i := cnt[v]; i < cnt[v+1]; i++ {
				stack = append(stack, children[i])
			}
		}
	}
	return f
}

// before reports whether writer a's version of key k precedes or equals
// writer b's in the key's version order (a -WW*-> b). False when either
// writer is not a committed writer of k, or the versions are on
// divergent branches (incomparable).
func (f *wwForest) before(k history.KeyID, a, b int) bool {
	sa := f.ix.WriterSlot(k, int32(a))
	sb := f.ix.WriterSlot(k, int32(b))
	if sa < 0 || sb < 0 {
		return false
	}
	return f.slotBefore(int32(sa), int32(sb))
}

// slotBefore is before on precomputed writer slots (both >= 0): two
// preorder-interval reads, no lookups.
func (f *wwForest) slotBefore(sa, sb int32) bool {
	return f.tin[sa] <= f.tin[sb] && f.tin[sb] < f.tout[sa]
}

// strictlyBefore reports a -WW+-> b: a's version of k is a strict
// ancestor of b's.
func (f *wwForest) strictlyBefore(k history.KeyID, a, b int) bool {
	return a != b && f.before(k, a, b)
}
