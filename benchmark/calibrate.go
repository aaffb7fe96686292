package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// The machines this benchmark runs on are shared: for minutes at a time
// the same binary on the same inputs runs 10-30% slower, memory-bound
// code more than compute-bound code, and two runs of one commit then
// differ by more than any bound worth gating on. So every timed window
// also times a fixed kernel of the benchmark's own — no product code —
// between operations, and reports times as they would read on a host
// that runs the kernel in referenceKernelMS. On 30 s windows over ten
// minutes of one machine this cut the run-to-run variation of all four
// workloads from 12-13% to 4-5% (coefficient of variation).
//
// The kernel has three parts of about equal length, because the
// workloads slow down as a mix of all three: hashing and sorting in
// cache, dependent loads across 32 MB, and decoding JSON into freshly
// allocated values.
const (
	referenceKernelMS = 10.0
	// Three runs once a second: the kernel evicts the caches, so the
	// operation after it starts cold. Sampling four times as often moved
	// batch-verify's 90th percentile by a fifth; at this rate the cold
	// starts are too few to reach it.
	calibrateEvery = time.Second
	calibrateBurst = 3
	chaseLen       = 1 << 23 // int32 entries: 32 MB, well past the caches
)

type calibrator struct {
	chase []int32
	doc   []byte
	sink  int

	samples     []float64 // kernel times, ms
	last        time.Time
	spent       time.Duration
	allocPerRun uint64 // bytes one kernel run allocates
}

func newCalibrator() *calibrator {
	c := &calibrator{chase: make([]int32, chaseLen)}
	for i := range c.chase {
		c.chase[i] = int32((i*1664525 + 1013904223) & (chaseLen - 1))
	}
	type rec struct {
		ID   int      `json:"id"`
		Name string   `json:"name"`
		Tags []string `json:"tags"`
		V    []int    `json:"v"`
	}
	recs := make([]rec, 2000)
	for i := range recs {
		recs[i] = rec{ID: i, Name: fmt.Sprint("name-", i), Tags: []string{"a", "bb", fmt.Sprint(i)}, V: []int{i, 2 * i, 3 * i}}
	}
	var err error
	if c.doc, err = json.Marshal(recs); err != nil {
		panic(err) // a slice of plain structs always encodes
	}
	// The kernel allocates the same amount every time; knowing it lets a
	// loop subtract the kernel's share from its allocation count.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.kernel()
	runtime.ReadMemStats(&after)
	c.allocPerRun = after.TotalAlloc - before.TotalAlloc
	return c
}

func (c *calibrator) kernel() {
	m := make(map[int]int, 1<<14)
	xs := make([]int, 0, 1<<15)
	x := 12345
	for i := 0; i < 1<<15; i++ {
		x = x*1103515245 + 12345
		m[x&(1<<14-1)] += i
		xs = append(xs, x)
	}
	sort.Ints(xs)

	type node struct {
		next *node
		v    int32
	}
	var head *node
	j := int32(1)
	for i := 0; i < 25000; i++ {
		j = c.chase[j]
		if i&7 == 0 {
			head = &node{next: head, v: j}
		}
	}

	var doc any
	if err := json.Unmarshal(c.doc, &doc); err != nil {
		panic(err) // c.doc is this program's own encoding
	}
	c.sink += xs[100] + len(m) + int(head.v) + len(doc.([]any))
}

// sample times one kernel run.
func (c *calibrator) sample() {
	start := time.Now()
	c.kernel()
	c.last = time.Now()
	d := c.last.Sub(start)
	c.spent += d
	c.samples = append(c.samples, float64(d)/float64(time.Millisecond))
}

// tick takes a burst of samples if the last one is calibrateEvery old.
// Loops call it between operations.
func (c *calibrator) tick() {
	if c == nil || time.Since(c.last) < calibrateEvery {
		return
	}
	for i := 0; i < calibrateBurst; i++ {
		c.sample()
	}
}

// reset forgets the samples taken so far; the next window starts clean.
func (c *calibrator) reset() { c.samples, c.spent, c.last = nil, 0, time.Time{} }

// factor is what a duration measured alongside the samples is
// multiplied by to read as on the reference host.
func (c *calibrator) factor() float64 {
	return referenceKernelMS / median(c.samples)
}
