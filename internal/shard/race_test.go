package shard

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"mtc/internal/checker"
	"mtc/internal/core"
)

// TestShardedLevelsConcurrently runs ONE multi-tenant history through
// checker.Run's sharded path at Shard 1, 2 and GOMAXPROCS
// simultaneously — the workers share the history, the partition logic
// and the engines, so under -race this is the proof that the
// component fan-out and the merge touch no shared mutable state.
// Alongside the workers, a cancellation goroutine submits the same job
// under an immediately-expiring context and asserts the component loop
// aborts promptly.
func TestShardedLevelsConcurrently(t *testing.T) {
	h := tenantHistory(4, 30)
	levels := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, name := range []string{"mtc", "mtc-incremental", "polysi"} {
		name := name
		t.Run(name, func(t *testing.T) {
			var (
				wg      sync.WaitGroup
				mu      sync.Mutex
				reports []checker.Report
			)
			for _, sh := range levels {
				for rep := 0; rep < 2; rep++ {
					wg.Add(1)
					go func(sh int) {
						defer wg.Done()
						r, err := checker.Run(context.Background(), name, h, checker.Options{Level: core.SI, Shard: sh})
						if err != nil {
							t.Errorf("shard %d: %v", sh, err)
							return
						}
						mu.Lock()
						reports = append(reports, r)
						mu.Unlock()
					}(sh)
				}
			}
			// Cancellation: an expired context stops the fan-out quickly.
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				start := time.Now()
				_, err := checker.Run(ctx, name, h, checker.Options{Level: core.SI, Shard: 2})
				if err == nil {
					t.Error("canceled sharded run returned no error")
				}
				if d := time.Since(start); d > 2*time.Second {
					t.Errorf("canceled sharded run took %v, want < 2s", d)
				}
			}()
			wg.Wait()
			if t.Failed() {
				return
			}
			for i := 1; i < len(reports); i++ {
				a, b := reports[0], reports[i]
				a.Timings, b.Timings = nil, nil // wall-clock differs, nothing else may
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("reports diverge across shard levels:\n%+v\n%+v", a, b)
				}
			}
		})
	}
}
