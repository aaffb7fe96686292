package checker

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"mtc/internal/history"
)

// TestParallelismLevelsConcurrently runs ONE history through the
// registry at Parallelism 1, 2 and GOMAXPROCS simultaneously — the
// engines share the history and (for the SAT baselines) their polygraph
// construction paths, so under -race this is the proof that the parallel
// prune shards, the closure levels and concurrent SSER runs over one
// history touch no shared mutable state. Alongside the workers, a
// cancellation goroutine submits the same job under an
// immediately-expiring context and asserts the parallel prune loop
// aborts in under 2s.
func TestParallelismLevelsConcurrently(t *testing.T) {
	// Blind writes over one key: enough constraints that the prune loop
	// actually shards, small enough to finish quickly at par 1. The timed
	// serial history drives the SSER rung, which ignores the knob.
	blind := history.BlindWriteHistory(3, 60)
	timed := history.SerialHistory(400, "x", "y")
	levels := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, name := range []string{"cobra", "mtc"} {
		name := name
		t.Run(name, func(t *testing.T) {
			opts := Options{}
			h := blind
			if name == "cobra" {
				opts.Level = "SER"
			} else {
				opts.Level = "SSER"
				h = timed
			}
			var (
				wg      sync.WaitGroup
				mu      sync.Mutex
				reports []Report
			)
			for _, par := range levels {
				for rep := 0; rep < 2; rep++ {
					wg.Add(1)
					go func(par int) {
						defer wg.Done()
						o := opts
						o.Parallelism = par
						r, err := Run(context.Background(), name, h, o)
						if err != nil {
							t.Errorf("par %d: %v", par, err)
							return
						}
						mu.Lock()
						reports = append(reports, r)
						mu.Unlock()
					}(par)
				}
			}
			// Concurrent cancellation: like a DELETEd /v1/jobs worker, the
			// context fires while the parallel loops run.
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
				defer cancel()
				o := opts
				o.Parallelism = runtime.GOMAXPROCS(0)
				start := time.Now()
				_, err := Run(ctx, name, h, o)
				elapsed := time.Since(start)
				if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					t.Errorf("canceled run: unexpected error %v", err)
				}
				if elapsed > 2*time.Second {
					t.Errorf("canceled run returned after %v; cancellation must stop the parallel loops promptly", elapsed)
				}
			}()
			wg.Wait()
			if len(reports) == 0 {
				t.Fatal("no successful runs")
			}
			// Every parallelism level must agree on the wire-visible verdict.
			ref := reports[0]
			for _, r := range reports[1:] {
				if r.OK != ref.OK || r.Txns != ref.Txns || r.Edges != ref.Edges ||
					!reflect.DeepEqual(r.Anomalies, ref.Anomalies) {
					t.Fatalf("parallelism levels disagree:\nref: ok=%v txns=%d edges=%d\ngot: ok=%v txns=%d edges=%d",
						ref.OK, ref.Txns, ref.Edges, r.OK, r.Txns, r.Edges)
				}
			}
		})
	}
}
