package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refOnline is Online as it was before its edges moved into an arena: one
// append-grown []Edge per node and direction, a fresh parent map and four
// fresh slices per order inversion. It is kept as the oracle — the arena
// must hold, list for list and in the same order, what these append chains
// hold, so that every Pearce–Kelly reorder and every returned cycle is the
// same.
type refOnline struct {
	ord   []int
	out   [][]Arc
	in    [][]Arc
	mark  []int
	stamp int
}

// newRefOnlineOrdered is the bulk load under the identity order.
func newRefOnlineOrdered(n int, edges []Arc) *refOnline {
	t := &refOnline{
		ord:  make([]int, n),
		out:  make([][]Arc, n),
		in:   make([][]Arc, n),
		mark: make([]int, n),
	}
	for v := range t.ord {
		t.ord[v] = v
	}
	for _, e := range edges {
		if e.From < 0 || e.From >= e.To || int(e.To) >= n {
			panic(fmt.Sprintf("edge %d -> %d does not ascend within %d nodes", e.From, e.To, n))
		}
		t.out[e.From] = append(t.out[e.From], e)
		t.in[e.To] = append(t.in[e.To], e)
	}
	return t
}

func (t *refOnline) AddNode() int {
	id := len(t.ord)
	t.ord = append(t.ord, id)
	t.out = append(t.out, nil)
	t.in = append(t.in, nil)
	t.mark = append(t.mark, 0)
	return id
}

func (t *refOnline) AddEdge(e Arc) []Arc {
	u, v := int(e.From), int(e.To)
	t.out[u] = append(t.out[u], e)
	t.in[v] = append(t.in[v], e)
	if u == v {
		return []Arc{e}
	}
	if t.ord[u] < t.ord[v] {
		return nil
	}
	lb, ub := t.ord[v], t.ord[u]

	t.stamp++
	fwd := []int{v}
	t.mark[v] = t.stamp
	parent := map[int]Arc{}
	stack := []int{v}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, oe := range t.out[x] {
			w := int(oe.To)
			if w == u {
				cycle := []Arc{e}
				var path []Arc
				for y := x; y != v; y = int(parent[y].From) {
					path = append(path, parent[y])
				}
				for i := len(path) - 1; i >= 0; i-- {
					cycle = append(cycle, path[i])
				}
				return append(cycle, oe)
			}
			if t.ord[w] > ub || t.mark[w] == t.stamp {
				continue
			}
			t.mark[w] = t.stamp
			parent[w] = oe
			fwd = append(fwd, w)
			stack = append(stack, w)
		}
	}

	bwdStamp := -t.stamp
	bwd := []int{u}
	t.mark[u] = bwdStamp
	stack = append(stack[:0], u)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ie := range t.in[x] {
			w := int(ie.From)
			if t.ord[w] < lb || t.mark[w] == bwdStamp {
				continue
			}
			t.mark[w] = bwdStamp
			bwd = append(bwd, w)
			stack = append(stack, w)
		}
	}

	byOrd := func(s []int) {
		sort.Slice(s, func(i, j int) bool { return t.ord[s[i]] < t.ord[s[j]] })
	}
	byOrd(fwd)
	byOrd(bwd)
	slots := make([]int, 0, len(fwd)+len(bwd))
	for _, x := range bwd {
		slots = append(slots, t.ord[x])
	}
	for _, x := range fwd {
		slots = append(slots, t.ord[x])
	}
	sort.Ints(slots)
	nodes := append(bwd, fwd...)
	for i, x := range nodes {
		t.ord[x] = slots[i]
	}
	return nil
}

// outList and inList read a node's two lists out of the arena.
func outList(t *Online, v int) []Arc {
	var es []Arc
	for i, e := range t.Out(v) {
		if i != len(es) {
			panic("Out yields positions out of step")
		}
		es = append(es, e)
	}
	return es
}

func inList(t *Online, v int) []Arc {
	var es []Arc
	for id := t.adj[v].inHead; id != 0; id = t.arcs.At(id).nextIn {
		es = append(es, t.arcs.At(id).Arc)
	}
	return es
}

// sameEdges is slice equality that does not tell nil from empty.
func sameEdges(a, b []Arc) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// sameAsRef fails unless got is want: the order node for node, both lists
// of every node element for element.
func sameAsRef(tb testing.TB, got *Online, want *refOnline, when string) {
	tb.Helper()
	if got.Len() != len(want.ord) {
		tb.Fatalf("%s: %d nodes, reference %d", when, got.Len(), len(want.ord))
	}
	for v := range want.ord {
		if got.Ord(v) != want.ord[v] {
			tb.Fatalf("%s: Ord(%d) = %d, reference %d", when, v, got.Ord(v), want.ord[v])
		}
		if o := outList(got, v); !sameEdges(o, want.out[v]) {
			tb.Fatalf("%s: out list of %d\n got %v\nwant %v", when, v, o, want.out[v])
		}
		if in := inList(got, v); !sameEdges(in, want.in[v]) {
			tb.Fatalf("%s: in list of %d\n got %v\nwant %v", when, v, in, want.in[v])
		}
	}
}

// driveOnline reads data as a program over an Online and a refOnline and
// holds the two against each other after every step:
//
//	op%6  0    AddNode
//	      1    AddEdge a -> b along the current order
//	      2    AddEdge a -> b against it (reorders, or closes a cycle)
//	      3    the previous edge again under another kind
//	      4    Reload: a nodes (at least 2), b ascending edges drawn from
//	           the bytes that follow
//	      5    a self-loop at a
//
// a and b are the two bytes after op. A closing edge ends the program: a
// graph that reported a cycle is only read from then on.
func driveOnline(tb testing.TB, data []byte) (steps, reorders int, closed bool) {
	tb.Helper()
	got, want := NewOnline(), newRefOnlineOrdered(0, nil)
	var last Arc
	for pc := 0; pc+2 < len(data); pc += 3 {
		op, a, b := data[pc]%6, int(data[pc+1]), int(data[pc+2])
		n := got.Len()
		var e Arc
		switch {
		case op == 0:
			if x, y := got.AddNode(), want.AddNode(); x != y {
				tb.Fatalf("step %d: AddNode = %d, reference %d", steps, x, y)
			}
			steps++
			sameAsRef(tb, got, want, fmt.Sprintf("step %d AddNode", steps))
			continue
		case op == 4:
			n = 2 + a%30
			edges := make([]Arc, 0, b%64)
			for ; len(edges) < cap(edges) && pc+5 < len(data); pc += 2 {
				u := int(data[pc+3]) % (n - 1)
				edges = append(edges, Arc{From: int32(u), To: int32(u + 1 + int(data[pc+4])%(n-1-u)), Kind: EdgeKind(data[pc+4] % 6), Obj: objLoad})
			}
			load(got, n, edges)
			want, last = newRefOnlineOrdered(n, edges), Arc{}
			steps++
			sameAsRef(tb, got, want, fmt.Sprintf("step %d Reload(%d, %d edges)", steps, n, len(edges)))
			continue
		case n == 0:
			continue
		case op == 3:
			if last == (Arc{}) {
				continue
			}
			e = last
			e.Kind = (e.Kind + 1 + EdgeKind(a%5)) % 6
		case op == 5:
			e = Arc{From: int32(a % n), To: int32(a % n), Kind: WW, Obj: objLoop}
		default:
			u, v := a%n, b%n
			if u == v {
				continue
			}
			if (got.Ord(u) < got.Ord(v)) != (op == 1) {
				u, v = v, u
			}
			e = Arc{From: int32(u), To: int32(v), Kind: EdgeKind(b % 6), Obj: objK}
		}
		last = e
		inverts := got.Ord(int(e.From)) > got.Ord(int(e.To))
		cy, ref := got.AddEdge(e), want.AddEdge(e)
		steps++
		if !reflect.DeepEqual(cy, ref) {
			tb.Fatalf("step %d: AddEdge(%v) = %v, reference %v", steps, e, cy, ref)
		}
		if cy != nil {
			// The order is stale now, but the lists still took the edge.
			for v := 0; v < n; v++ {
				if !sameEdges(outList(got, v), want.out[v]) || !sameEdges(inList(got, v), want.in[v]) {
					tb.Fatalf("step %d: lists of %d differ after the closing edge %v", steps, v, e)
				}
			}
			return steps, reorders, true
		}
		if inverts {
			reorders++
		}
		sameAsRef(tb, got, want, fmt.Sprintf("step %d AddEdge(%v)", steps, e))
	}
	return steps, reorders, false
}

// TestOnlineMatchesAppendChains drives the arena-backed Online and the
// slice-backed reference through random programs of node insertions,
// ascending and order-inverting edges, parallel edges, self-loops and
// mid-sequence reloads.
func TestOnlineMatchesAppendChains(t *testing.T) {
	const programs = 2500
	// Fresh nodes and ascending edges outnumber inverting ones, so that a
	// program reorders and reloads a few times before an edge closes a cycle.
	mix := []byte{0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 3, 4}
	var steps, reorders, closed int
	for seed := int64(0); seed < programs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*(40+rng.Intn(200)))
		rng.Read(data)
		for pc := 0; pc < len(data); pc += 3 {
			switch {
			case pc < 3*(4+int(seed%24)):
				data[pc] = 0 // nodes first, so that edges have somewhere to go
			case rng.Intn(200) == 0:
				data[pc] = 5
			default:
				data[pc] = mix[rng.Intn(len(mix))]
			}
		}
		s, r, c := driveOnline(t, data)
		steps, reorders = steps+s, reorders+r
		if c {
			closed++
		}
	}
	t.Logf("%d programs, %d steps, %d reorders, %d closed a cycle", programs, steps, reorders, closed)
	if reorders < 2*programs || closed < programs/4 || closed > programs-programs/10 {
		t.Fatalf("%d reorders, %d of %d programs closed a cycle: the generator stopped covering inversions or one of the two endings", reorders, closed, programs)
	}
}

// FuzzOnlineOrder is the same differential with the program chosen by the
// fuzzer.
func FuzzOnlineOrder(f *testing.F) {
	nodes := func(n int) []byte { return make([]byte, 3*n) }
	// A chain loaded in bulk, inverted twice, then closed.
	f.Add(append(nodes(1), 4, 6, 5, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 2, 5, 0, 2, 4, 1, 2, 3, 0))
	// Edges one at a time, a parallel edge, an inversion, a reload, more.
	f.Add(append(nodes(5), 1, 0, 1, 1, 1, 2, 3, 0, 0, 2, 4, 0, 1, 2, 3, 4, 3, 2, 0, 0, 1, 1, 0, 1, 2, 1, 2, 0, 2))
	// A self-loop.
	f.Add(append(nodes(2), 5, 1, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*400 {
			data = data[:3*400]
		}
		driveOnline(t, data)
	})
}
