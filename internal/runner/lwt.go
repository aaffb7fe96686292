package runner

import (
	"math/rand"
	"runtime"
	"sync"

	"mtc/internal/core"
	"mtc/internal/kv"
	"mtc/internal/workload"
)

// LWTConfig parameterizes a lightweight-transaction run against a live
// store: each session repeatedly reads a register's current value and
// issues a compare-and-set to a fresh unique value, retrying on CAS
// failure (the Cassandra-style client loop).
type LWTConfig struct {
	Sessions      int
	OpsPerSession int
	Keys          int
	Seed          int64
}

// maxCASAttempts bounds the compare-and-set retries of one LWT operation.
const maxCASAttempts = 64

// LWTResult is the outcome of RunLWT.
type LWTResult struct {
	Ops       []core.LWT
	Succeeded int
	Failed    int // failed CAS attempts (retried)
}

// RunLWT executes the LWT workload and returns the recorded history of
// *successful* operations: per the paper, a failed compare-and-set is
// equivalent to a simple read and does not join the write chain. The
// per-key chains plus real-time intervals are exactly what VLLWT and the
// Porcupine baseline consume.
func RunLWT(s *kv.Store, cfg LWTConfig) *LWTResult {
	if cfg.Keys <= 0 {
		cfg.Keys = 1
	}
	// Insert every register first (single-threaded; inserts head chains).
	var (
		mu  sync.Mutex
		res LWTResult
	)
	for k := 0; k < cfg.Keys; k++ {
		ok, rec := s.Insert(workload.KeyName(k), 0)
		if ok {
			rec.ID = len(res.Ops)
			res.Ops = append(res.Ops, rec)
			res.Succeeded++
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for si := 0; si < cfg.Sessions; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			<-start
			rng := rand.New(rand.NewSource(cfg.Seed + int64(si) + 1))
			values := 0
			for i := 0; i < cfg.OpsPerSession; i++ {
				key := workload.KeyName(rng.Intn(cfg.Keys))
				newVal := uniqueValue(si, values)
				values++
				for attempt := 0; attempt < maxCASAttempts; attempt++ {
					cur, _ := s.ReadValue(key)
					runtime.Gosched() // let rival sessions race the CAS
					ok, rec := s.CAS(key, cur, newVal)
					mu.Lock()
					if ok {
						rec.ID = len(res.Ops)
						res.Ops = append(res.Ops, rec)
						res.Succeeded++
						mu.Unlock()
						break
					}
					res.Failed++
					mu.Unlock()
				}
			}
		}(si)
	}
	close(start)
	wg.Wait()
	return &res
}
