// Command mtc-benchjson reads `go test -bench` output on stdin and either
// writes it as a JSON snapshot (-out; name/value/unit/extra rows, the
// shape github-action-benchmark tooling and benchmark/out/benchjson.json
// share) or gates it against bench/baseline.json (-compare).
//
//	go test -run '^$' -bench Stream1M -benchtime 1x . | mtc-benchjson -out stream.json
//	go test -run '^$' -bench '<gate set>' -benchtime 1s -benchmem . \
//	  | mtc-benchjson -compare bench/baseline.json
//
// The baseline holds only what a shared runner cannot move: exact
// allocs/op and B/op rows (deterministic under one Go release, so 5%
// over is a source change, not noise) and ratios between two benchmarks
// of the same run (machine speed cancels). A row or ratio operand absent
// from the run is MISSING and fails like a regression: a renamed
// benchmark, or a run without -benchmem, must not drop out of the gate
// silently. Absolute times live in `go run ./benchmark`, which
// calibrates for the host. The nine bars and the refresh procedure:
// docs/ci.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Bench is one parsed benchmark result.
type Bench struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Extra string  `json:"extra,omitempty"`
}

// Snapshot is the -out payload: one run's benchmark set.
type Snapshot struct {
	Date    string  `json:"date"`
	Commit  string  `json:"commit,omitempty"`
	Tool    string  `json:"tool"`
	Benches []Bench `json:"benches"`
}

// Baseline is bench/baseline.json, the one table the gate reads.
type Baseline struct {
	Benches []Bench `json:"benches"` // allocs/op and B/op rows only
	Ratios  []Ratio `json:"ratios"`
}

// Ratio bars Num/Den, both read at Unit from the run under test:
// at least Min, or strictly below Max (exactly one is set). A bar that
// only means something with parallel hardware names it in MinCPUs and
// is skipped, operands still required, on a smaller host.
type Ratio struct {
	Num     string  `json:"num"`
	Den     string  `json:"den"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min,omitempty"`
	Max     float64 `json:"max,omitempty"`
	MinCPUs int     `json:"min_cpus,omitempty"`
	Why     string  `json:"why"`
}

// allocTolerance is the allowed fractional growth over a baseline row,
// in allocs/op or B/op.
const allocTolerance = 0.05

// benchLine matches e.g.
// "BenchmarkBatchSER10k-8   	      24	  46519241 ns/op	 1234 B/op	  12 allocs/op"
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op`)

// extraMetric matches the custom b.ReportMetric units (e.g. the
// long-stream benchmarks' "4.800 peak-heap-MB") and the allocation pair.
var extraMetric = regexp.MustCompile(`([\d.]+) (peak-heap-MB|B/op|allocs/op)`)

// rowSuffix is what a unit appends to the benchmark's name in its row.
var rowSuffix = map[string]string{
	"ns/op": "", "peak-heap-MB": "/peak-heap-MB", "B/op": "/alloc", "allocs/op": "/allocs",
}

func main() {
	out := flag.String("out", "", "write the snapshot to this file (default stdout, when not gating)")
	commit := flag.String("commit", os.Getenv("GITHUB_SHA"), "commit id recorded in the snapshot")
	compare := flag.String("compare", "", "baseline table to gate against (exit 1 on a regression, a breached ratio or a missing row)")
	flag.Parse()
	if err := run(*out, *commit, *compare); err != nil {
		fmt.Fprintf(os.Stderr, "mtc-benchjson: %v\n", err)
		os.Exit(1)
	}
}

func run(out, commit, compare string) error {
	benches, err := parseBenches(os.Stdin)
	if err != nil {
		return fmt.Errorf("read: %w", err)
	}
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	if out != "" || compare == "" {
		snap := Snapshot{Date: time.Now().UTC().Format(time.RFC3339), Commit: commit, Tool: "go", Benches: benches}
		if err := writeSnapshot(out, snap); err != nil {
			return err
		}
	}
	if compare == "" {
		return nil
	}
	base, err := loadBaseline(compare)
	if err != nil {
		return err
	}
	if err := base.gate(os.Stdout, benches, runtime.NumCPU()); err != nil {
		return fmt.Errorf("%w against %s (docs/ci.md)", err, compare)
	}
	return nil
}

// writeSnapshot encodes snap to path, or to stdout when path is empty.
func writeSnapshot(path string, snap Snapshot) error {
	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if path == "" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d benches to %s\n", len(snap.Benches), path)
	return nil
}

// parseBenches extracts benchmark results from `go test -bench` output:
// one ns/op entry per benchmark line plus derived entries for the
// allocation pair and any custom b.ReportMetric units it recognises.
func parseBenches(r io.Reader) ([]Bench, error) {
	var benches []Bench
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		benches = append(benches, Bench{Name: m[1], Value: v, Unit: "ns/op", Extra: m[2] + " times"})
		for _, em := range extraMetric.FindAllStringSubmatch(line, -1) {
			val, err := strconv.ParseFloat(em[1], 64)
			if err != nil {
				continue
			}
			benches = append(benches, Bench{Name: m[1] + rowSuffix[em[2]], Value: val, Unit: em[2]})
		}
	}
	return benches, sc.Err()
}

// loadBaseline reads the table and refuses one the gate could not
// enforce as written: a row in a host-dependent unit or named for
// another unit, or a ratio without exactly one bound.
func loadBaseline(path string) (Baseline, error) {
	var base Baseline
	raw, err := os.ReadFile(path)
	if err != nil {
		return base, fmt.Errorf("read baseline: %w", err)
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		return base, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	if len(base.Benches)+len(base.Ratios) == 0 {
		return base, fmt.Errorf("baseline %s gates nothing", path)
	}
	for _, b := range base.Benches {
		if b.Unit != "allocs/op" && b.Unit != "B/op" {
			return base, fmt.Errorf("baseline %s: row %s is in %s; only allocs/op and B/op rows are host-independent", path, b.Name, b.Unit)
		}
		if !strings.HasSuffix(b.Name, rowSuffix[b.Unit]) {
			return base, fmt.Errorf("baseline %s: row %s is in %s, so its name ends in %s", path, b.Name, b.Unit, rowSuffix[b.Unit])
		}
	}
	for _, r := range base.Ratios {
		if _, ok := rowSuffix[r.Unit]; !ok || (r.Min > 0) == (r.Max > 0) {
			return base, fmt.Errorf("baseline %s: ratio %s/%s needs a known unit and exactly one of min, max", path, r.Num, r.Den)
		}
	}
	return base, nil
}

// gate holds the run to the table, reporting one line per row and per
// ratio on w. Improvements and in-tolerance drift pass.
func (base Baseline) gate(w io.Writer, cur []Bench, cpus int) error {
	current := make(map[string]float64, len(cur))
	for _, b := range cur {
		current[b.Name] = b.Value
	}
	regressions, missing := 0, 0
	lookup := func(name string) (float64, bool) {
		v, ok := current[name]
		if !ok {
			missing++
			fmt.Fprintf(w, "MISSING  %-40s not in this run — renamed, or -benchmem dropped?\n", name)
		}
		return v, ok
	}
	for _, b := range base.Benches {
		got, ok := lookup(b.Name)
		if !ok {
			continue
		}
		growth := 0.0
		if b.Value > 0 {
			growth = got/b.Value - 1
		} else if got > 0 {
			growth = 1 // zero-alloc baseline regressed to allocating
		}
		verdict := "ok"
		if growth > allocTolerance {
			regressions++
			verdict = "REGRESS"
		}
		fmt.Fprintf(w, "%-8s %-40s %.0f -> %.0f %s (%+.1f%%, tolerance %.0f%%)\n",
			verdict, b.Name, b.Value, got, b.Unit, growth*100, allocTolerance*100)
	}
	if regressions > 0 {
		// Allocation counts and bytes are deterministic, so a trip is a
		// source change — point at the annotation machinery that
		// localizes it.
		fmt.Fprintln(w, "hint: allocation regressions usually trace to a //mtc:hotpath function growing a per-item allocation or a wider record; run `go run ./cmd/mtc-lint ./...` to pinpoint the construct (docs/lint.md)")
	}
	for _, r := range base.Ratios {
		num, okNum := lookup(r.Num + rowSuffix[r.Unit])
		den, okDen := lookup(r.Den + rowSuffix[r.Unit])
		if !okNum || !okDen {
			continue
		}
		got := num / den
		bar := fmt.Sprintf(">= %g", r.Min)
		held := got >= r.Min
		if r.Max > 0 {
			bar, held = fmt.Sprintf("< %g", r.Max), got < r.Max
		}
		verdict := "ok"
		switch {
		case cpus < r.MinCPUs:
			verdict = "skip"
			bar += fmt.Sprintf(", not asserted: %d CPUs, needs %d", cpus, r.MinCPUs)
		case !held:
			regressions++
			verdict = "BREACH"
		}
		fmt.Fprintf(w, "%-8s %s / %s = %.2f %s (bar %s) — %s\n", verdict, r.Num, r.Den, got, r.Unit, bar, r.Why)
	}
	if regressions+missing > 0 {
		return fmt.Errorf("%d regression(s), %d missing benchmark(s)", regressions, missing)
	}
	fmt.Fprintf(w, "bench gate: %d allocation rows and %d ratios hold\n", len(base.Benches), len(base.Ratios))
	return nil
}
