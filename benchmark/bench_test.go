package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQuickRun drives every workload's end-to-end pass and one traced
// pass at the quick scale: every verdict is checked, every metric named
// in BENCHMARK.json comes out as a number in its unit, and the servers,
// coordinator and workers shut down without leaving a goroutine or a
// WAL directory behind.
func TestQuickRun(t *testing.T) {
	spec := readBenchmarkJSON(t)
	goroutines := runtime.NumGoroutine()
	cfg := config{seed: 1, seconds: 1, quick: true, outDir: t.TempDir()}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, spec.Workloads[i].Name, w.name)
		}
		res, err := endToEnd(cfg, &w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.firstErr)
		}
		if len(res.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, BENCHMARK.json lists %d", w.name, len(res.Metrics), len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: %s = %+v (present %v), want a positive number of %s", w.name, m.Name, got, ok, m.Unit)
			}
		}
	}

	under := workloadByName("session-windowed")
	res, err := traced(cfg, under)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("traced pass: %d of %d operations failed: %v", res.Failed, res.Attempted, res.firstErr)
	}
	if len(res.Metrics) != len(spec.PerLayer) {
		t.Errorf("traced pass gives %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("traced pass: %s = %+v (present %v), want a number of %s", m.Name, got, ok, m.Unit)
		}
	}
	for _, name := range []string{"fabric.requeues", "mtcserve.refused_429"} {
		if v := res.Metrics[name].Value; v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
	trace, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+under.name+".ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	var first span
	if err := json.Unmarshal(trace[:bytes.IndexByte(trace, '\n')], &first); err != nil || first.Name == "" || first.End < first.Start {
		t.Errorf("first trace line %+v: %v", first, err)
	}

	left, err := os.ReadDir(cfg.outDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range left {
		if entry.IsDir() {
			t.Errorf("temporary directory %s was not removed", entry.Name())
		}
	}
	// Server.Close does not wait for its pool workers and the HTTP
	// transports retire idle connections asynchronously; give them a
	// moment, then insist.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after shutdown:\n%s", goroutines, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestBenchmarkJSONMatchesProgram keeps the metric table of the
// program and of BENCHMARK.json in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	spec := readBenchmarkJSON(t)
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		got := spec.EndToEnd[i]
		better := "lower"
		if m.higherBetter {
			better = "higher"
		}
		if got.Name != m.name || got.Unit != m.unit || got.Better != better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
	}
	for _, w := range spec.Workloads {
		if strings.ContainsAny(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	names := make([]string, len(spec.PerLayer))
	for i, m := range spec.PerLayer {
		names[i] = m.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Error("per_layer is not sorted by name")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 0.9); p != 5 {
		t.Errorf("p90 of 1..5 = %v, want 5", p)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 0.5); p != 3 {
		t.Errorf("p50 of 1..5 = %v, want 3", p)
	}
}

// TestCompareVerdicts feeds -compare two synthetic result sets.
func TestCompareVerdicts(t *testing.T) {
	set := func(scale map[string]float64, noisy string, failed int) results {
		var r results
		for _, w := range workloads {
			wr := workloadResults{Name: w.name, Layers: &result{}}
			for k := 0; k < 10; k++ {
				one := run{Seed: int64(k), result: result{Attempted: 100, Failed: failed, Metrics: map[string]metric{}}}
				for _, m := range e2eMetrics {
					v := 100 * (1 + 0.001*float64(k))
					if f, ok := scale[m.name]; ok {
						v *= f
					}
					if m.name == noisy {
						v *= 1 + 0.2*float64(k%5)
					}
					one.Metrics[m.name] = metric{v, m.unit}
				}
				wr.Runs = append(wr.Runs, one)
			}
			r.Workloads = append(r.Workloads, wr)
		}
		return r
	}
	dir := t.TempDir()
	write := func(name string, r results) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", set(nil, "", 0))
	for _, c := range []struct {
		name   string
		b      results
		worse  bool
		expect string
	}{
		{"same", set(nil, "", 0), false, "same"},
		{"slower", set(map[string]float64{"verdict_ms_p50": 1.5}, "", 0), true, "worse"},
		{"faster", set(map[string]float64{"verdict_ms_p50": 0.5}, "", 0), false, "better"},
		{"throughput-drop", set(map[string]float64{"txns_per_s": 0.5}, "", 0), true, "worse"},
		{"noisy", set(nil, "peak_rss_mb", 0), false, "unresolved"},
		{"failing", set(nil, "", 1), true, "worse"},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, write(c.name+".json", c.b))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.expect) {
			t.Errorf("%s: worse=%v, want %v and a %q row:\n%s", c.name, worse, c.worse, c.expect, out.String())
		}
	}
}
