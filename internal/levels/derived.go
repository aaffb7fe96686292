package levels

import (
	"context"

	"mtc/internal/core"
	"mtc/internal/graph"
	"mtc/internal/history"
)

// derived is the one dependency derivation every rung shares — core's
// Deps, the value core.CheckCtx evaluates its own rungs over — plus the
// per-key version forest the weak rungs and the guarantees add.
type derived struct {
	*core.Deps
	f *wwForest // built lazily; only weak rungs and guarantees need it
}

// pass is the result of a rung settled by a stronger rung's verdict.
func (d *derived) pass(lvl core.Level) core.Result {
	return core.Result{Level: lvl, OK: true, NumTxns: d.Index.NumTxns(), NumEdges: d.Graph.NumEdges()}
}

// checkSSER is the SSER rung given the SER rung's verdict over the same
// derivation: a SER cycle survives the addition of real-time edges, so
// it is reused as the witness; on a SER-clean history core's inversion
// pass decides the rest — the two halves of core's own SSER rung, with
// the cycle search not repeated.
func (d *derived) checkSSER(ctx context.Context, ser core.Result) (core.Result, error) {
	res := ser
	res.Level = core.SSER
	if ser.OK {
		var err error
		if res.Cycle, err = d.Inversion(ctx); err != nil {
			return core.Result{}, err
		}
		res.OK = res.Cycle == nil
	}
	return res, nil
}

// subgraph returns g restricted to the edge kinds in the mask (bit k set
// keeps EdgeKind k), every out list in g's order. The edges are counted
// first and then arrive in ascending source order, so the builder's log
// is cut once and becomes the subgraph's arena without a copy.
//
//mtc:hotpath — rung filter over every edge of the shared graph
func subgraph(g *graph.Graph, kinds uint) *graph.Graph {
	n, m := g.Len(), 0
	for u := 0; u < n; u++ {
		for _, e := range g.Out(u) {
			m += int(kinds >> e.Kind & 1)
		}
	}
	b := graph.NewBuilder(n, m)
	for u := 0; u < n; u++ {
		for _, e := range g.Out(u) {
			if kinds>>e.Kind&1 != 0 {
				b.AddEdge(e)
			}
		}
	}
	return b.Build()
}

// checkRC is the RC rung. G0/G1a/G1b are the pre-check's anomalies;
// what remains is G1c — a cycle of write/read dependencies alone — so
// the rung filters the shared graph down to WR ∪ WW and searches that.
func (d *derived) checkRC() core.Result {
	res := core.Result{Level: core.RC, NumTxns: d.Index.NumTxns(), NumEdges: d.Graph.NumEdges()}
	res.Cycle = subgraph(d.Graph, 1<<graph.WR|1<<graph.WW).FindCycle()
	res.OK = res.Cycle == nil
	return res
}

// checkRA is the RA rung: RC's G1c plus fractured reads.
func (d *derived) checkRA(rc core.Result) core.Result {
	res := core.Result{Level: core.RA, NumTxns: d.Index.NumTxns(), NumEdges: d.Graph.NumEdges()}
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
func (d *derived) fracturedReads() []history.Anomaly {
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
// edge. Reachability over the acyclic CO uses the bitset closure.
func (d *derived) checkCausal(ctx context.Context, par int) (core.Result, error) {
	res := core.Result{Level: core.CAUSAL, NumTxns: d.Index.NumTxns(), NumEdges: d.Graph.NumEdges()}
	n := d.Graph.Len()
	co := subgraph(d.Graph, 1<<graph.SO|1<<graph.WR)
	if cycle := co.FindCycle(); cycle != nil {
		res.Cycle = cycle
		return res, nil
	}
	if !hasRW(d.Graph) {
		res.OK = true // nothing can close a CO path: skip the n²/64-word closure
		return res, nil
	}
	cl, _, err := graph.NewClosure(ctx, co, par)
	if err != nil {
		return core.Result{}, err
	}
	//mtc:cancellation-ok linear edge scan of O(1) bitset probes
	for u := 0; u < n; u++ {
		for _, rw := range d.Graph.Out(u) {
			if rw.Kind == graph.RW && cl.Reach(rw.To, rw.From) {
				res.Cycle = liftCycle(co, rw)
				return res, nil
			}
		}
	}
	res.OK = true
	return res, nil
}

// hasRW reports whether g has an anti-dependency edge.
func hasRW(g *graph.Graph) bool {
	for u := 0; u < g.Len(); u++ {
		for _, e := range g.Out(u) {
			if e.Kind == graph.RW {
				return true
			}
		}
	}
	return false
}

// liftCycle materializes the causal counterexample for an RW edge whose
// target reaches its source in CO: the shortest CO path rw.To ~> rw.From
// (BFS) followed by the RW edge itself, a closed cycle of real edges.
func liftCycle(co *graph.Graph, rw graph.Edge) []graph.Edge {
	n := co.Len()
	parent := make([]graph.Edge, n)
	seen := make([]bool, n)
	queue := make([]int, 0, 64)
	queue = append(queue, rw.To)
	seen[rw.To] = true
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		if u == rw.From {
			break
		}
		for _, e := range co.Out(u) {
			if !seen[e.To] {
				seen[e.To] = true
				parent[e.To] = e
				queue = append(queue, e.To)
			}
		}
	}
	if !seen[rw.From] {
		// Unreachable contradicts the closure query; degrade to the bare
		// RW edge rather than panic.
		return []graph.Edge{rw}
	}
	var path []graph.Edge
	for v := rw.From; v != rw.To; v = parent[v].From {
		path = append(path, parent[v])
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return append(path, rw)
}

// forest returns the per-key version forest, building it on first use.
func (d *derived) forest() *wwForest {
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
// weak rung or the guarantee scan asks for it.
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
			k, ok := ix.KeyIDOf(history.Key(e.Obj))
			if !ok {
				continue
			}
			sp := ix.WriterSlot(k, int32(e.From))
			sc := ix.WriterSlot(k, int32(e.To))
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
