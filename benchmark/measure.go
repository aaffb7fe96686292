package main

import (
	"context"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// loopResult is what one closed loop over an instance observed.
type loopResult struct {
	latencies []time.Duration // successful operations only, completion order per driver
	attempted int
	failed    int
	firstErr  error
	txns      int           // transactions verified by successful operations
	wall      time.Duration // calibration time taken out
	allocated uint64        // bytes, runtime.MemStats.TotalAlloc delta, calibration taken out
	factor    float64       // host speed factor over the loop; 1 without a calibrator
}

// runLoop drives inst with its own number of closed-loop callers: each
// takes the next operation index only after its previous verdict is in.
// The loop ends at the first multiple of inst.unit() for which done
// reports true; done sees the number of operations handed out and the
// time since the loop started. With a calibrator, the first caller
// samples the calibration kernel between its operations.
func runLoop(inst instance, tr *tracer, cal *calibrator, done func(ops int, elapsed time.Duration) bool) loopResult {
	var (
		next atomic.Int64
		mu   sync.Mutex
		res  loopResult
		wg   sync.WaitGroup
		ms   runtime.MemStats
	)
	unit := inst.unit()
	if cal != nil {
		cal.reset()
	}
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	start := time.Now()
	for d := 0; d < inst.drivers(); d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				lats         []time.Duration
				txns, failed int
				firstErr     error
			)
			for {
				if d == 0 {
					cal.tick()
				}
				i := int(next.Add(1)) - 1
				if i%unit == 0 && done(i, time.Since(start)) {
					break
				}
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				n, lat, err := inst.do(ctx, i, tr)
				cancel()
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				lats = append(lats, lat)
				txns += n
			}
			mu.Lock()
			defer mu.Unlock()
			res.latencies = append(res.latencies, lats...)
			res.attempted += len(lats) + failed
			res.failed += failed
			res.txns += txns
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	runtime.ReadMemStats(&ms)
	res.allocated = ms.TotalAlloc - before
	res.factor = 1
	if cal != nil && len(cal.samples) > 0 {
		// While one caller ran the kernel the others kept working, so the
		// loop lost the kernel's time on one caller out of all.
		res.wall -= cal.spent / time.Duration(inst.drivers())
		res.allocated -= uint64(len(cal.samples)) * cal.allocPerRun
		res.factor = cal.factor()
	}
	return res
}

// forOps ends a loop after exactly n operations.
func forOps(n int) func(int, time.Duration) bool {
	return func(ops int, _ time.Duration) bool { return ops >= n }
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 1).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(len(xs))))
	return sorted(xs)[max(rank, 1)-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = sorted(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// peakRSSMB is this process's high-water resident set. Linux reports
// Maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// gcSample is a reading of the collector's cumulative cost.
type gcSample struct {
	gcCPU, totalCPU float64 // seconds
	numGC           uint32
	pauses          [256]uint64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSample{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), numGC: ms.NumGC, pauses: ms.PauseNs}
}

// since returns the share of CPU time the collector used and its
// longest stop-the-world pause (ms) between an earlier reading and this
// one. MemStats keeps the last 256 pauses; a window with more
// collections reports the longest of those.
func (s gcSample) since(earlier gcSample) (cpuShare, maxPauseMS float64) {
	if d := s.totalCPU - earlier.totalCPU; d > 0 {
		cpuShare = (s.gcCPU - earlier.gcCPU) / d
	}
	first := earlier.numGC
	if s.numGC-first > 256 {
		first = s.numGC - 256
	}
	for n := first; n < s.numGC; n++ {
		maxPauseMS = math.Max(maxPauseMS, float64(s.pauses[n%256])/1e6)
	}
	return cpuShare, maxPauseMS
}
