package graph

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallelism normalizes a parallelism knob: values <= 0 select
// runtime.GOMAXPROCS(0), anything else is returned unchanged. Every layer
// that accepts a knob (checker.Options, the v1 API, the CLIs) funnels
// through this one default.
func Parallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// parallelChunk is the number of loop iterations a worker claims per
// atomic fetch. Claims are coarse enough to amortize the counter and the
// context poll, fine enough to balance skewed per-item costs.
const parallelChunk = 256

// ParallelDo runs fn(i) for every i in [0, n) on min(par, n) workers
// (par <= 0 means GOMAXPROCS). Workers claim chunks of the index space
// from a shared counter and poll ctx between chunks, so cancellation
// stops the batch within one chunk per worker. On cancellation some
// indices are left unvisited and the context's error is returned; callers
// must then discard any partial results.
//
// fn must be safe for concurrent invocation on distinct indices. With
// par == 1 (or n <= 1) everything runs on the calling goroutine, so
// serial paths pay no synchronization.
func ParallelDo(ctx context.Context, par, n int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	par = Parallelism(par)
	if par > n {
		par = n
	}
	if par == 1 {
		for i := 0; i < n; i++ {
			if i%parallelChunk == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			fn(i)
		}
		return nil
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(parallelChunk)) - parallelChunk
				if lo >= n || ctx.Err() != nil {
					return
				}
				hi := lo + parallelChunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// ReachPool answers batched reachability queries over a Graph with a
// bounded worker pool: each queried source is expanded by one
// iterative depth-first traversal into a Bitset row (the row is a set —
// discovery order is not part of the contract), sources are distributed
// over min(par, len(sources)) workers, and cancellation is honoured
// between queries. It is the sparse
// counterpart of Closure — use it when only a few rows of the closure are
// needed, so the full O(n²/64) table is not worth materializing.
type ReachPool struct {
	g   *Graph
	par int
}

// NewReachPool builds a pool over g. par <= 0 selects GOMAXPROCS.
func NewReachPool(g *Graph, par int) *ReachPool {
	return &ReachPool{g: g, par: Parallelism(par)}
}

// Rows answers one batch: Rows(ctx, sources)[i] is the set of nodes
// reachable from sources[i], including itself. On cancellation it returns
// the context's error and the rows are meaningless.
func (p *ReachPool) Rows(ctx context.Context, sources []int) ([]Bitset, error) {
	rows := make([]Bitset, len(sources))
	// Per-worker scratch stacks, recycled across the queries one worker
	// answers so a large batch does not allocate one stack per source.
	var stacks sync.Pool
	stacks.New = func() any { s := make([]int, 0, 64); return &s }
	err := ParallelDo(ctx, p.par, len(sources), func(i int) {
		sp := stacks.Get().(*[]int)
		rows[i] = p.row(sources[i], sp)
		stacks.Put(sp)
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// row expands one source into its reachable set.
func (p *ReachPool) row(src int, sp *[]int) Bitset {
	seen := NewBitset(p.g.Len())
	seen.Set(src)
	stack := append((*sp)[:0], src)
	defer func() { *sp = stack }()
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range p.g.Out(v) {
			if !seen.Test(e.To) {
				seen.Set(e.To)
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}
