package checker

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mtc/internal/core"
	"mtc/internal/history"
)

// TestSATBackedCheckersHonorDeadline submits a deliberately large job to
// each SAT-backed baseline under a deadline far shorter than the full
// run (which takes seconds at this size) and asserts the engine returns
// context.DeadlineExceeded promptly — the run must stop inside the prune
// fixpoint or the solver search, not grind to completion.
func TestSATBackedCheckersHonorDeadline(t *testing.T) {
	h := history.BlindWriteHistory(4, 200)
	for _, tc := range []struct {
		name  string
		level Level
	}{
		{"cobra", core.SER},
		{"polysi", core.SI},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := Run(ctx, tc.name, h, Options{Level: tc.level})
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("want context.DeadlineExceeded, got %v (after %v)", err, elapsed)
			}
			// The deadline is 50ms and cancellation polls run every few
			// hundred constraints/decisions; 2s is a generous bound that
			// still proves the multi-second full run was cut short.
			if elapsed > 2*time.Second {
				t.Fatalf("cancellation took %v; the deadline did not stop the hot loop", elapsed)
			}
		})
	}
}

// TestMTCCheckersHonorCanceledContext covers the non-SAT engines: an
// already-canceled context must surface as context.Canceled from every
// registry path, not as a verdict.
func TestMTCCheckersHonorCanceledContext(t *testing.T) {
	h := history.SerialHistory(64, "x", "y")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"mtc", "mtc-incremental", "cobra", "polysi", "elle", "porcupine"} {
		if _, err := Run(ctx, name, h, Options{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", name, err)
		}
	}
}

// TestDenseSSERHonorsDeadline exercises the Θ(n²) dense real-time
// enumeration: a large timed history under a tiny deadline must stop
// inside the pair loop.
func TestDenseSSERHonorsDeadline(t *testing.T) {
	b := history.NewBuilder("x")
	v := history.Value(1)
	ts := int64(1)
	for i := 0; i < 6000; i++ {
		b.TimedTxn(0, ts, ts+1, history.R("x", v-1+0), history.W("x", v))
		ts += 2
		v++
	}
	h := b.Build()
	// 10ms comfortably outlives the pre-check but expires long before
	// the ~18M-pair enumeration completes.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := core.CheckCtx(ctx, history.NewIndex(h), core.SSER, core.Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// armedCtx is a context that cancels itself at the first Err poll made
// from inside the function named by in — cancellation landing exactly in
// the phase under test, with no timing involved.
type armedCtx struct {
	context.Context
	in    string
	fired atomic.Bool
}

func (c *armedCtx) Err() error {
	if c.fired.Load() {
		return context.Canceled
	}
	pc := make([]uintptr, 32)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.Contains(f.Function, c.in) {
			c.fired.Store(true)
			return context.Canceled
		}
		if !more {
			return nil
		}
	}
}

// TestSparseSSERCopyHonorsCancellation: the sparse encoding copies the
// base graph through graph.ParallelDo (the only ParallelDo of a sparse
// SSER run); the copy must poll the caller's context — not a background
// one — and a cancellation landing there must end the run with the
// context's error.
func TestSparseSSERCopyHonorsCancellation(t *testing.T) {
	b := history.NewBuilder("x")
	for i := int64(1); i <= 50; i++ {
		b.TimedTxn(0, 2*i, 2*i+1, history.R("x", history.Value(i-1)), history.W("x", history.Value(i)))
	}
	ctx := &armedCtx{Context: context.Background(), in: "graph.ParallelDo"}
	_, err := Run(ctx, "mtc", b.Build(), Options{Level: core.SSER, SparseRT: true, Parallelism: 1})
	if !ctx.fired.Load() {
		t.Fatal("the sparse-RT base copy never polled the caller's context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
