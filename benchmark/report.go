package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// header is the host identity recorded next to every number.
type header struct {
	Date       string  `json:"date"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
}

// run is one end-to-end run of a workload.
type run struct {
	Seed int64 `json:"seed"`
	result
}

// workloadResults is everything measured on one workload.
type workloadResults struct {
	Name   string  `json:"name"`
	Runs   []run   `json:"runs"`   // end-to-end passes, one per seed
	Layers *result `json:"layers"` // the traced pass, at the first seed
}

// results is the content of results.json.
type results struct {
	Header    header            `json:"header"`
	Workloads []workloadResults `json:"workloads"`
}

func newHeader(cfg config) header {
	h := header{
		Date: time.Now().UTC().Format(time.RFC3339), Commit: "unknown",
		Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPUModel = strings.TrimSpace(value)
				break
			}
		}
	}
	return h
}

// runAll runs every workload in a child process of its own — so peak
// RSS, allocation counts and the collector's state are per workload —
// first the end-to-end pass (cfg.runs seeds), then the traced pass, and
// writes results.json and benchjson.json.
func runAll(cfg config) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := results{Header: newHeader(cfg)}
	for _, w := range workloads {
		wr := workloadResults{Name: w.name}
		for k := 0; k < cfg.runs; k++ {
			seed := cfg.seed + int64(k)
			res, err := runChild(self, cfg, w.name, seed, 0)
			if err != nil {
				return err
			}
			wr.Runs = append(wr.Runs, run{Seed: seed, result: res})
		}
		layers, err := runChild(self, cfg, w.name, cfg.seed, 1)
		if err != nil {
			return err
		}
		wr.Layers = &layers
		all.Workloads = append(all.Workloads, wr)
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "results.json"), all); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "benchjson.json"), all.benchjson()); err != nil {
		return err
	}
	all.print(os.Stdout)
	for _, w := range all.Workloads {
		if share := w.failedShare(); share > 0 || w.Layers.Failed > 0 {
			return fmt.Errorf("%s: failed_share %.6f end to end, %d failures in the traced pass", w.Name, share, w.Layers.Failed)
		}
	}
	return nil
}

// runChild runs one pass in a child process and parses the JSON on the
// last line of its output; the lines before it are passed through.
func runChild(self string, cfg config, workload string, seed int64, trace int) (result, error) {
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-out", cfg.outDir,
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for _, line := range lines[:len(lines)-1] {
		fmt.Printf("  %s\n", line)
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s (trace %d): last output line is not a result: %w", workload, trace, err)
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResults(path string) (results, error) {
	var r results
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// medians returns, per end-to-end metric, the median over the runs.
func (w workloadResults) medians() map[string]float64 {
	out := map[string]float64{}
	for _, m := range e2eMetrics {
		out[m.name] = median(w.values(m.name))
	}
	return out
}

func (w workloadResults) values(metric string) []float64 {
	var out []float64
	for _, r := range w.Runs {
		out = append(out, r.Metrics[metric].Value)
	}
	return out
}

// failedShare is failures over operations attempted, across the runs.
func (w workloadResults) failedShare() float64 {
	var failed, attempted int
	for _, r := range w.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(attempted)
}

// bench is one row of the name/value/unit/extra schema that
// cmd/mtc-benchjson and the CI dashboard read.
type bench struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Extra string  `json:"extra,omitempty"`
}

type snapshot struct {
	Date    string  `json:"date"`
	Commit  string  `json:"commit,omitempty"`
	Tool    string  `json:"tool"`
	Benches []bench `json:"benches"`
}

// benchjson re-emits the end-to-end medians in the dashboard's schema,
// with the host identity in extra.
func (r results) benchjson() snapshot {
	h := r.Header
	extra := fmt.Sprintf("seed %d, %s, GOMAXPROCS %d, nproc %d, %s", h.Seed, h.GoVersion, h.GOMAXPROCS, h.NProc, h.CPUModel)
	s := snapshot{Date: h.Date, Commit: h.Commit, Tool: "mtc-benchmark"}
	for _, w := range r.Workloads {
		med := w.medians()
		for _, m := range e2eMetrics {
			s.Benches = append(s.Benches, bench{Name: w.Name + "/" + m.name, Value: med[m.name], Unit: m.unit, Extra: extra})
		}
		s.Benches = append(s.Benches, bench{Name: w.Name + "/failed_share", Value: w.failedShare(), Unit: "ratio", Extra: extra})
	}
	return s
}

// print writes the end-to-end table and the per-layer table.
func (r results) print(w io.Writer) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	h := r.Header
	fmt.Fprintf(bw, "\ncommit %s, seed %d, %s, GOMAXPROCS %d, nproc %d, %s\n\n", h.Commit, h.Seed, h.GoVersion, h.GOMAXPROCS, h.NProc, h.CPUModel)
	fmt.Fprintf(bw, "%-20s", "end to end")
	for _, wl := range r.Workloads {
		fmt.Fprintf(bw, " %18s", wl.Name)
	}
	fmt.Fprintln(bw)
	for _, m := range e2eMetrics {
		fmt.Fprintf(bw, "%-20s", m.name+" "+m.unit)
		for _, wl := range r.Workloads {
			fmt.Fprintf(bw, " %18.4f", median(wl.values(m.name)))
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintf(bw, "%-20s", "failed_share")
	for _, wl := range r.Workloads {
		fmt.Fprintf(bw, " %18.6f", wl.failedShare())
	}
	fmt.Fprintln(bw)

	names := map[string]string{}
	for _, wl := range r.Workloads {
		for name, m := range wl.Layers.Metrics {
			names[name] = m.Unit
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	fmt.Fprintf(bw, "\n%-58s", "per layer (traced pass at each workload)")
	for _, wl := range r.Workloads {
		fmt.Fprintf(bw, " %18s", wl.Name)
	}
	fmt.Fprintln(bw)
	for _, name := range sorted {
		fmt.Fprintf(bw, "%-58s", name+" "+names[name])
		for _, wl := range r.Workloads {
			fmt.Fprintf(bw, " %18.4f", wl.Layers.Metrics[name].Value)
		}
		fmt.Fprintln(bw)
	}
}
