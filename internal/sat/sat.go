// Package sat implements the constraint solver that the Cobra and PolySI
// baselines delegate to — a from-scratch stand-in for MonoSAT's "SAT
// modulo monotonic theories" (Bayless et al.). Problems are sets of binary
// constraints: each constraint activates one of two edge sets in a
// dependency graph, and one cycle theory requires the union of known and
// chosen edges to be acyclic: the (base ; rw?) composition for snapshot
// isolation, and without the composition — every edge a base edge —
// plain acyclicity for serializability.
//
// The solver is a conflict-directed backjumping (CBJ) search with nogood
// learning: a theory conflict names the decision levels whose edges lie on
// the offending cycle; branches whose level is absent from the conflict
// set are skipped wholesale, and conflict sets are learned as nogoods that
// prune later branches. The search is complete: it reports Sat=false
// only when no orientation of the constraints satisfies the theory.
package sat

import (
	"context"
	"fmt"
)

// Kind labels an edge for the SI composition; SolveAcyclic ignores it.
type Kind uint8

// Edge kinds.
const (
	Base Kind = iota // SO / WR / WW edges
	RW               // anti-dependency edges (composed on the right in SI)
)

// Edge is a directed edge with a theory kind.
type Edge struct {
	From, To int
	Kind     Kind
}

// Constraint activates edge set A when its variable is assigned true and
// edge set B when assigned false.
type Constraint struct {
	A, B []Edge
}

// Result reports the outcome and search statistics.
type Result struct {
	Sat       bool
	Choices   []bool // per-constraint orientation when Sat
	Decisions int
	Conflicts int
	Learned   int
}

// solver carries the CBJ search state. Constraint i is assigned at
// decision level i+1 (static order), which keeps level→variable mapping
// trivial.
type solver struct {
	cons    []Constraint
	th      *theory
	assign  []int8 // +1 true, -1 false, 0 unassigned
	learned [][]lit
	res     Result
	ctx     context.Context
	err     error // ctx cancellation, checked every ctxCheckMask decisions
}

// ctxCheckMask sets the cancellation polling period: the context is
// consulted once every 64 decisions, so a deadline stops an exponential
// search within a bounded number of theory checks.
const ctxCheckMask = 63

// canceled polls the context; once it fires, every dfs frame unwinds.
func (s *solver) canceled() bool {
	if s.err != nil {
		return true
	}
	if s.res.Decisions&ctxCheckMask == 0 {
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return true
		}
	}
	return false
}

// lit is one entry of a learned nogood: variable v took value val.
type lit struct {
	v   int
	val int8
}

// solve searches for an orientation of cons whose activated edges, unioned
// with known, keep the theory's composed graph acyclic (compose selects
// the SI composition). n is the node count. The search polls ctx every
// few decisions and unwinds with the context's error when it fires, so a
// deadline bounds even an exponential search; the partial Result then
// carries the statistics accumulated up to the cancellation point.
func solve(ctx context.Context, n int, known []Edge, cons []Constraint, compose bool) (Result, error) {
	checkRange(n, known)
	for _, c := range cons {
		checkRange(n, c.A)
		checkRange(n, c.B)
	}
	s := &solver{
		cons:   cons,
		th:     newTheory(ctx, n, compose),
		assign: make([]int8, len(cons)),
		ctx:    ctx,
	}
	if err := ctx.Err(); err != nil {
		return s.res, err
	}
	s.th.Push(0, known)
	if _, ok := s.th.Check(); !ok {
		return s.res, nil // known edges alone violate the theory
	}
	solved, _ := s.dfs(0)
	if s.err != nil {
		return s.res, s.err
	}
	if solved {
		s.res.Sat = true
		s.res.Choices = make([]bool, len(cons))
		for i, a := range s.assign {
			s.res.Choices[i] = a > 0
		}
	}
	return s.res, nil
}

// dfs assigns constraint `v` (at decision level v+1) and recurses. On
// failure it returns the conflict set: the decision levels responsible.
// If the current level is not in a branch's conflict set, flipping this
// variable cannot help and the conflict propagates up unchanged (the
// backjump).
func (s *solver) dfs(v int) (bool, []int) {
	if v == len(s.cons) {
		return true, nil
	}
	if s.canceled() {
		return false, nil
	}
	level := v + 1
	var union []int
	for _, val := range [2]int8{1, -1} {
		var confl []int
		if cl, blocked := s.blockedBy(v, val); blocked {
			// A learned nogood already forbids this assignment; its
			// levels form the conflict set.
			confl = levelsOf(cl, v)
			confl = append(confl, level)
		} else {
			s.assign[v] = val
			s.res.Decisions++
			s.th.Push(level, chosen(s.cons[v], val))
			c, ok := s.th.Check()
			if ok {
				solved, sub := s.dfs(v + 1)
				if solved {
					return true, nil
				}
				confl = sub
			} else {
				s.res.Conflicts++
				confl = c
				s.learn(confl, v)
			}
			s.th.Pop(level - 1)
			s.assign[v] = 0
		}
		if !containsLevel(confl, level) {
			// This decision is irrelevant to the failure: backjump.
			return false, confl
		}
		union = mergeLevels(union, removeLevel(confl, level))
	}
	return false, union
}

// learn records the conflicting assignment combination as a nogood.
func (s *solver) learn(levels []int, cur int) {
	var cl []lit
	for _, l := range levels {
		if l == 0 {
			continue
		}
		vv := l - 1
		if vv > cur || s.assign[vv] == 0 {
			continue
		}
		cl = append(cl, lit{v: vv, val: s.assign[vv]})
	}
	if len(cl) == 0 || len(cl) > 8 {
		return // keep only short, high-value nogoods
	}
	s.learned = append(s.learned, cl)
	s.res.Learned++
}

// blockedBy reports whether assigning v:=val completes a learned nogood
// under the current assignment, returning the nogood.
func (s *solver) blockedBy(v int, val int8) ([]lit, bool) {
	for _, cl := range s.learned {
		all := true
		touches := false
		for _, l := range cl {
			switch {
			case l.v == v:
				touches = true
				if l.val != val {
					all = false
				}
			case s.assign[l.v] != l.val:
				all = false
			}
			if !all {
				break
			}
		}
		if all && touches {
			return cl, true
		}
	}
	return nil, false
}

// levelsOf maps a nogood's variables (other than cur) to decision levels.
func levelsOf(cl []lit, cur int) []int {
	var out []int
	for _, l := range cl {
		if l.v != cur {
			out = append(out, l.v+1)
		}
	}
	return out
}

func chosen(c Constraint, val int8) []Edge {
	if val > 0 {
		return c.A
	}
	return c.B
}

func containsLevel(ls []int, l int) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}

func mergeLevels(a, b []int) []int {
	out := append([]int(nil), a...)
	for _, l := range b {
		if !containsLevel(out, l) {
			out = append(out, l)
		}
	}
	return out
}

func removeLevel(ls []int, l int) []int {
	var out []int
	for _, x := range ls {
		if x != l {
			out = append(out, x)
		}
	}
	return out
}

// SolveAcyclic solves for plain acyclicity of the active edges (the Cobra
// / serializability condition): the theory without composition.
func SolveAcyclic(ctx context.Context, n int, known []Edge, cons []Constraint) (Result, error) {
	return solve(ctx, n, known, cons, false)
}

// SolveSI solves for the snapshot-isolation condition: the composed graph
// (base ; rw?) over the active edges must be acyclic.
func SolveSI(ctx context.Context, n int, known []Edge, cons []Constraint) (Result, error) {
	return solve(ctx, n, known, cons, true)
}

func checkRange(n int, es []Edge) {
	for _, e := range es {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			panic(fmt.Sprintf("sat: edge %v out of range [0,%d)", e, n))
		}
	}
}
