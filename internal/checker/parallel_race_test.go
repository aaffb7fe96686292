package checker

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"mtc/internal/history"
)

// TestParallelismLevelsConcurrently runs ONE history through the
// registry on several goroutines at once — the engines share the
// history and (for the SAT baselines) their polygraph construction
// paths, so under -race this is the proof that concurrent prune rounds,
// closures and SSER runs over one history touch no shared mutable state.
// Alongside them, a cancellation goroutine submits the same job under an
// immediately-expiring context and asserts the prune loop aborts in
// under 2s.
func TestParallelismLevelsConcurrently(t *testing.T) {
	// Blind writes over one key: enough constraints that the prune loop
	// has work, small enough to finish quickly. The timed serial history
	// drives the SSER rung.
	blind := history.BlindWriteHistory(3, 60)
	timed := history.SerialHistory(400, "x", "y")
	const runs = 4
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
			for run := 0; run < runs; run++ {
				wg.Add(1)
				go func(run int) {
					defer wg.Done()
					r, err := Run(context.Background(), name, h, opts)
					if err != nil {
						t.Errorf("run %d: %v", run, err)
						return
					}
					mu.Lock()
					reports = append(reports, r)
					mu.Unlock()
				}(run)
			}
			// Concurrent cancellation: like a DELETEd /v1/jobs worker, the
			// context fires while the other runs are in flight.
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
				defer cancel()
				start := time.Now()
				_, err := Run(ctx, name, h, opts)
				elapsed := time.Since(start)
				if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					t.Errorf("canceled run: unexpected error %v", err)
				}
				if elapsed > 2*time.Second {
					t.Errorf("canceled run returned after %v; cancellation must stop the engine promptly", elapsed)
				}
			}()
			wg.Wait()
			if len(reports) == 0 {
				t.Fatal("no successful runs")
			}
			// Every run must agree on the wire-visible verdict.
			ref := reports[0]
			for _, r := range reports[1:] {
				if r.OK != ref.OK || r.Txns != ref.Txns || r.Edges != ref.Edges ||
					!reflect.DeepEqual(r.Anomalies, ref.Anomalies) {
					t.Fatalf("concurrent runs disagree:\nref: ok=%v txns=%d edges=%d\ngot: ok=%v txns=%d edges=%d",
						ref.OK, ref.Txns, ref.Edges, r.OK, r.Txns, r.Edges)
				}
			}
		})
	}
}
