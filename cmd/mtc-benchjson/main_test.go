package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: mtc
BenchmarkBatchSER10k-8   	      24	  46519241 ns/op	 1234 B/op	  12 allocs/op
BenchmarkBatchSI10k-8    	      20	  52519241 ns/op
BenchmarkProfile10k-8    	      18	  61211100 ns/op	 4.800 peak-heap-MB
PASS
ok  	mtc	4.2s
`

// TestParseBenches covers the -bench output parser: the ns/op entry per
// line plus the derived allocation and custom-metric entries.
func TestParseBenches(t *testing.T) {
	benches, err := parseBenches(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Bench{}
	for _, b := range benches {
		byName[b.Name] = b
	}
	if len(benches) != 6 {
		t.Fatalf("parsed %d benches, want 6: %+v", len(benches), benches)
	}
	if b := byName["BenchmarkBatchSER10k"]; b.Value != 46519241 || b.Unit != "ns/op" || b.Extra != "24 times" {
		t.Fatalf("SER bench: %+v", b)
	}
	if b := byName["BenchmarkBatchSER10k/allocs"]; b.Value != 12 || b.Unit != "allocs/op" {
		t.Fatalf("allocs entry: %+v", b)
	}
	if b := byName["BenchmarkProfile10k/peak-heap-MB"]; b.Value != 4.8 {
		t.Fatalf("custom metric entry: %+v", b)
	}
}

// run100 is a run of two benchmarks, A at ns/allocs and B at 100/100.
func run100(ns, allocs float64) []Bench {
	return []Bench{
		{Name: "BenchmarkA", Unit: "ns/op", Value: ns},
		{Name: "BenchmarkA/allocs", Unit: "allocs/op", Value: allocs},
		{Name: "BenchmarkB", Unit: "ns/op", Value: 100},
		{Name: "BenchmarkB/allocs", Unit: "allocs/op", Value: 100},
	}
}

// TestCompareBaselineAllocHint holds the alloc rows to the 5% tolerance
// and checks that a trip prints the hint pointing at mtc-lint's
// //mtc:hotpath machinery — and that a breached ratio, which says
// nothing about allocation annotations, does not.
func TestCompareBaselineAllocHint(t *testing.T) {
	base := Baseline{
		Benches: []Bench{{Name: "BenchmarkA/allocs", Unit: "allocs/op", Value: 100}},
		Ratios:  []Ratio{{Num: "BenchmarkA", Den: "BenchmarkB", Unit: "ns/op", Max: 2, Why: "w"}},
	}
	gate := func(cur []Bench) (string, error) {
		var out strings.Builder
		err := base.gate(&out, cur, 1)
		return out.String(), err
	}
	if out, err := gate(run100(100, 104)); err != nil || strings.Contains(out, "mtc:hotpath") {
		t.Fatalf("+4%% allocs: err %v\n%s", err, out)
	}
	out, err := gate(run100(100, 106))
	if err == nil || !strings.Contains(out, "REGRESS") {
		t.Fatalf("+6%% allocs passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "mtc:hotpath") || !strings.Contains(out, "cmd/mtc-lint") {
		t.Fatalf("allocs regression did not print the mtc-lint hint:\n%s", out)
	}
	out, err = gate(run100(300, 100))
	if err == nil || strings.Contains(out, "mtc:hotpath") {
		t.Fatalf("breached ratio alone: err %v\n%s", err, out)
	}
	// A zero-alloc row that starts allocating has no percentage; it trips.
	base.Benches[0].Value = 0
	if out, err := gate(run100(100, 1)); err == nil {
		t.Fatalf("0 -> 1 allocs passed:\n%s", out)
	}
	// A run without -benchmem has no allocs rows at all.
	out, err = gate(run100(100, 100)[2:3])
	if err == nil || strings.Count(out, "MISSING") != 2 || !strings.Contains(err.Error(), "2 missing") {
		t.Fatalf("missing row and operand: err %v\n%s", err, out)
	}
}

// TestCompareRatios walks the same-run ratio bars: A/B with B fixed at
// 100 in both units.
func TestCompareRatios(t *testing.T) {
	cpus := runtime.NumCPU()
	cases := []struct {
		name   string
		ratio  Ratio
		ns     float64 // BenchmarkA ns/op
		allocs float64 // BenchmarkA allocs/op
		fails  bool
		prints string
	}{
		{name: "max held", ratio: Ratio{Unit: "ns/op", Max: 1.5}, ns: 149, prints: "ok "},
		{name: "max breached", ratio: Ratio{Unit: "ns/op", Max: 1.5}, ns: 150, fails: true, prints: "BREACH"},
		{name: "min held", ratio: Ratio{Unit: "ns/op", Min: 2}, ns: 200, prints: "ok "},
		{name: "min breached", ratio: Ratio{Unit: "ns/op", Min: 2}, ns: 199, fails: true, prints: "BREACH"},
		{name: "allocs unit reads the allocs rows", ratio: Ratio{Unit: "allocs/op", Min: 10}, ns: 1, allocs: 1000, prints: "= 10.00 allocs/op"},
		{name: "allocs unit breached", ratio: Ratio{Unit: "allocs/op", Min: 10}, ns: 5000, allocs: 900, fails: true, prints: "BREACH"},
		{name: "enough cpus asserts", ratio: Ratio{Unit: "ns/op", Min: 2, MinCPUs: cpus}, ns: 100, fails: true, prints: "BREACH"},
		{name: "too few cpus skips", ratio: Ratio{Unit: "ns/op", Min: 2, MinCPUs: cpus + 1}, ns: 100, prints: "not asserted"},
	}
	for _, tc := range cases {
		tc.ratio.Num, tc.ratio.Den, tc.ratio.Why = "BenchmarkA", "BenchmarkB", "because"
		var out strings.Builder
		err := Baseline{Ratios: []Ratio{tc.ratio}}.gate(&out, run100(tc.ns, tc.allocs), cpus)
		if (err != nil) != tc.fails || !strings.Contains(out.String(), tc.prints) || !strings.Contains(out.String(), "because") {
			t.Errorf("%s: err %v, want failure %v and %q in:\n%s", tc.name, err, tc.fails, tc.prints, out.String())
		}
	}
	// A missing operand fails even when the bar would be skipped.
	var out strings.Builder
	skipped := Ratio{Num: "BenchmarkA", Den: "BenchmarkGone", Unit: "ns/op", Min: 2, MinCPUs: cpus + 1}
	if err := (Baseline{Ratios: []Ratio{skipped}}).gate(&out, run100(100, 100), cpus); err == nil ||
		!strings.Contains(out.String(), "MISSING  BenchmarkGone") {
		t.Errorf("missing operand: err %v\n%s", err, out.String())
	}
}

// TestLoadBaselineRefuses keeps the table to what the gate enforces.
func TestLoadBaselineRefuses(t *testing.T) {
	for name, doc := range map[string]string{
		"a host-dependent row": `{"benches":[{"name":"BenchmarkA","value":5,"unit":"ns/op"}]}`,
		"both bounds":          `{"ratios":[{"num":"A","den":"B","unit":"ns/op","min":1,"max":2}]}`,
		"no bound":             `{"ratios":[{"num":"A","den":"B","unit":"ns/op"}]}`,
		"an unknown unit":      `{"ratios":[{"num":"A","den":"B","unit":"s/op","min":1}]}`,
		"an empty table":       `{}`,
		"malformed JSON":       `{`,
	} {
		path := filepath.Join(t.TempDir(), "baseline.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadBaseline(path); err == nil {
			t.Errorf("baseline with %s loaded", name)
		}
	}
}

// TestCommittedBaselineNamesExist fails when a row or ratio operand of
// bench/baseline.json names a benchmark the root package no longer
// declares, so a rename is caught by `go test ./...` and not first by
// the CI bench leg.
func TestCommittedBaselineNamesExist(t *testing.T) {
	base, err := loadBaseline("../../bench/baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Benches) != 21 || len(base.Ratios) != 7 {
		t.Errorf("baseline has %d rows and %d ratios, want 21 and 7", len(base.Benches), len(base.Ratios))
	}
	files, err := filepath.Glob("../../*bench_test.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no root bench files: %v", err)
	}
	declared := map[string]bool{}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = true
			}
		}
	}
	var names []string
	for _, b := range base.Benches {
		names = append(names, b.Name)
	}
	for _, r := range base.Ratios {
		names = append(names, r.Num, r.Den)
	}
	for _, name := range names {
		if fn, _, _ := strings.Cut(name, "/"); !declared[fn] {
			t.Errorf("bench/baseline.json names %s, which no root *bench_test.go declares", name)
		}
	}
}
