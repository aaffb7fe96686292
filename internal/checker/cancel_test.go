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

// TestSSERInversionHonorsCancellation: the SSER rung's real-time pass
// (core.Deps.Inversion) must poll the caller's context — not a
// background one — and a cancellation landing there must end the run
// with the context's error, on the dedicated engine and the profiler.
func TestSSERInversionHonorsCancellation(t *testing.T) {
	b := history.NewBuilder("x")
	for i := int64(1); i <= 50; i++ {
		b.TimedTxn(0, 2*i, 2*i+1, history.R("x", history.Value(i-1)), history.W("x", history.Value(i)))
	}
	h := b.Build()
	for _, name := range []string{"mtc", "profile"} {
		ctx := &armedCtx{Context: context.Background(), in: "core.(*Deps).Inversion"}
		_, err := Run(ctx, name, h, Options{Level: core.SSER})
		if !ctx.fired.Load() {
			t.Fatalf("%s: the inversion pass never polled the caller's context", name)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", name, err)
		}
	}
}
