package main

import (
	"fmt"
	"io"
)

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads read the same here and in the driver. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median; 0
// for fewer than two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// compareFiles prints, per workload and end-to-end metric, the medians
// of results files a (the parent) and b (the change), how much worse b
// is, the bound, and a verdict:
//
//	unresolved  either side's run-to-run spread is wider than the bound
//	worse       b's median is worse than a's by more than the bound
//	better      b's median is better than a's by more than the bound
//	same        otherwise
//
// It reports whether any row is worse or failed_share rose.
func compareFiles(w io.Writer, a, b string) (worse bool, err error) {
	ra, err := readResults(a)
	if err != nil {
		return false, err
	}
	rb, err := readResults(b)
	if err != nil {
		return false, err
	}
	byName := map[string]workloadResults{}
	for _, wl := range rb.Workloads {
		byName[wl.Name] = wl
	}
	fmt.Fprintf(w, "A %s  commit %s  seed %d  %d runs\nB %s  commit %s  seed %d  %d runs\n\n",
		a, ra.Header.Commit, ra.Header.Seed, len(ra.Workloads[0].Runs), b, rb.Header.Commit, rb.Header.Seed, len(rb.Workloads[0].Runs))
	fmt.Fprintf(w, "%-18s %-18s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "median A", "median B", "worse by", "bound", "spread", "verdict")
	for _, wa := range ra.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			return false, fmt.Errorf("%s has no workload %s", b, wa.Name)
		}
		ma, mb := wa.medians(), wb.medians()
		for _, m := range e2eMetrics {
			loss := (mb[m.name] - ma[m.name]) / ma[m.name]
			if m.higherBetter {
				loss = -loss
			}
			sp := max(spread(wa.values(m.name)), spread(wb.values(m.name)))
			verdict := "same"
			switch {
			case sp > m.bound:
				verdict = "unresolved"
			case loss > m.bound:
				verdict, worse = "worse", true
			case loss < -m.bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-18s %-18s %14.4f %14.4f %+8.1f%% %6.0f%% %7.1f%%  %s\n",
				wa.Name, m.name, ma[m.name], mb[m.name], 100*loss, 100*m.bound, 100*sp, verdict)
		}
		fa, fb := wa.failedShare(), wb.failedShare()
		verdict := "same"
		if fb > fa {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(w, "%-18s %-18s %14.6f %14.6f %9s %7s %8s  %s\n", wa.Name, "failed_share", fa, fb, "", "any", "", verdict)
	}
	return worse, nil
}
