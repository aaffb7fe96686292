// Command benchmark is the repository's one performance benchmark:
// history bytes in, verdict out, on the batch, stream, session and
// serving paths, with a separate traced pass that decomposes the cost
// by layer. See README.md in this directory.
//
//	go run ./benchmark -seed 1                      # all four workloads, both passes
//	go run ./benchmark -workload batch-verify       # one workload, end-to-end metrics
//	go run ./benchmark -workload serve-jobs -trace 1  # its per-layer metrics
//	go run ./benchmark -compare A.json B.json       # two results.json files
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// config is one invocation's flags.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	runs     int
	outDir   string
}

// e2eMetric describes one end-to-end metric; the same table is in
// BENCHMARK.json (the tests keep the two in step).
type e2eMetric struct {
	name, unit   string
	higherBetter bool
	bound        float64 // share of the median a later commit may lose
}

var e2eMetrics = []e2eMetric{
	{"verdict_ms_p50", "ms", false, 0.25},
	{"verdict_ms_p90", "ms", false, 0.25},
	{"txns_per_s", "1/s", true, 0.25},
	{"alloc_kb_per_txn", "KB", false, 0.05},
	{"peak_rss_mb", "MB", false, 0.25},
	{"setup_s", "s", false, 0.25},
}

const (
	setupRuns = 3   // set-ups per run; setup_s is their median
	minOps    = 100 // operations per measured window: ten samples beyond the 90th percentile
	warmOps   = 20  // operations before it (rounded up to whole units)
)

// result is what one pass over one workload reports; its JSON is the
// last line of a single-workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	firstErr error // the first failed operation, for the human-readable output
}

func main() {
	var cfg config
	compare := flag.Bool("compare", false, "compare two results.json files given as arguments")
	flag.StringVar(&cfg.workload, "workload", "", "run one workload in this process (default: all four, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the input generator")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end pass; 1: traced pass with per-layer metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny corpora and a 1 s window: checks the wiring, measures nothing")
	flag.IntVar(&cfg.runs, "runs", 1, "end-to-end runs per workload when running all (seeds seed, seed+1, ...)")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for results, traces and temporary files")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare needs two results.json paths")
		} else {
			var worse bool
			if worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
				os.Exit(1)
			}
		}
	case cfg.workload != "":
		err = runOne(cfg)
	default:
		err = runAll(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// runOne runs one pass over one workload in this process and prints
// every metric by name, then the result as one JSON line.
func runOne(cfg config) error {
	w := workloadByName(cfg.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	pass := endToEnd
	if cfg.trace != 0 {
		pass = traced
	}
	res, err := pass(cfg, w)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-46s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Printf("%-46s %14.6f (%d of %d operations)\n", "failed_share", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if res.firstErr != nil {
		fmt.Println("first failure:", res.firstErr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func (cfg config) env(full scale) env {
	e := env{seed: cfg.seed, sc: full, tmpDir: cfg.outDir}
	if cfg.quick {
		e.sc = quickScale
	}
	return e
}

// endToEnd is the untraced pass: set up (several times, for a steady
// setup_s), warm up, then measure a closed loop for cfg.seconds and at
// least minOps operations. Warm-up and the memory reading are counted
// in operations, not seconds: the serving path keeps state per job, so
// the resident set follows the number of operations, and a count is
// the same on a fast and a slow host.
func endToEnd(cfg config, w *workload) (result, error) {
	e := cfg.env(fullScale)
	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.quick {
		window = time.Second
	}

	// Set-up, timed between calibration samples.
	cal := newCalibrator()
	var (
		inst   instance
		setups []float64
	)
	cal.sample()
	for k := 0; k < setupRuns; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, fmt.Errorf("close: %w", err)
			}
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		cal.sample()
	}
	setupFactor := cal.factor()

	unit := inst.unit()
	warm := runLoop(inst, nil, nil, forOps((warmOps+unit-1)/unit*unit))
	runtime.GC()
	var (
		rssOnce sync.Once
		rss     float64
	)
	r := runLoop(inst, nil, cal, func(ops int, elapsed time.Duration) bool {
		if ops >= minOps {
			rssOnce.Do(func() { rss = peakRSSMB() })
		}
		return elapsed >= window && ops >= minOps
	})
	if err := inst.close(); err != nil {
		return result{}, fmt.Errorf("close: %w", err)
	}
	if len(r.latencies) == 0 {
		return result{}, fmt.Errorf("no operation succeeded: %w", r.firstErr)
	}

	lat := millis(r.latencies)
	p50, p90, rate := percentile(lat, 0.5), percentile(lat, 0.9), float64(r.txns)/r.wall.Seconds()
	res := result{
		Attempted: warm.attempted + r.attempted,
		Failed:    warm.failed + r.failed,
		Metrics: map[string]metric{
			"verdict_ms_p50":   {p50 * r.factor, "ms"},
			"verdict_ms_p90":   {p90 * r.factor, "ms"},
			"txns_per_s":       {rate / r.factor, "1/s"},
			"alloc_kb_per_txn": {float64(r.allocated) / 1024 / float64(r.txns), "KB"},
			"peak_rss_mb":      {rss, "MB"},
			"setup_s":          {median(setups) * setupFactor, "s"},
		},
	}
	res.Correct = res.Failed == 0
	fmt.Printf("%s: seed %d, %d drivers, %d operations in %.2f s (%d beyond the 90th percentile)\n",
		w.name, cfg.seed, inst.drivers(), len(lat), r.wall.Seconds(), len(lat)-int(0.9*float64(len(lat))))
	fmt.Printf("times are at reference host speed; as measured here (speed factor %.3f over %d samples): p50 %.3f ms, p90 %.3f ms, %.1f txns/s, set-up %.4f s (factor %.3f)\n",
		r.factor, len(cal.samples), p50, p90, rate, median(setups), setupFactor)
	if j, ok := inst.(*jobsInst); ok {
		fmt.Printf("%d jobs lost the submit/dispatch race and were submitted again\n", j.resubmitted.Load())
	}
	if res.firstErr = r.firstErr; res.firstErr == nil {
		res.firstErr = warm.firstErr
	}
	return res, nil
}

// traced is the traced pass; it writes the spans next to the results.
func traced(cfg config, w *workload) (result, error) {
	tr := newTracer()
	l, err := tracedPass(cfg.env(traceScale), w, tr)
	if err != nil {
		return result{}, err
	}
	path := fmt.Sprintf("%s/trace-%s.ndjson", cfg.outDir, w.name)
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("%s: seed %d, traced pass, spans in %s\n", w.name, cfg.seed, path)
	return result{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: l.out, firstErr: l.firstErr}, nil
}
