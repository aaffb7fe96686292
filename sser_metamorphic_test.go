// sser_metamorphic_test.go holds the SSER rung and the profile to a
// metamorphic property of the real-time order: it is defined by
// comparing stamps alone, so shifting every stamp by a constant or
// scaling every stamp by a positive integer is invisible to a verdict.
// Both reports — the `mtc` SSER check and the whole lattice `profile` —
// must come back identical, witness included, minus wall-clock timings.
package main

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/corpus"
	"mtc/internal/history"
)

// retimed returns a copy of h with every stamped transaction's Start and
// Finish mapped through f. A transaction stamped 0/0 stays unstamped: it
// is outside the real-time order, and f must keep it there.
func retimed(h *history.History, f func(int64) int64) *history.History {
	c := *h
	c.Txns = make([]history.Txn, len(h.Txns))
	for i, t := range h.Txns {
		if t.Start != 0 || t.Finish != 0 {
			t.Start, t.Finish = f(t.Start), f(t.Finish)
		}
		c.Txns[i] = t
	}
	return &c
}

// sserReports runs `mtc` at SSER and `profile` on h, timings stripped.
func sserReports(t *testing.T, h *history.History, tag string) [2]checker.Report {
	t.Helper()
	var reps [2]checker.Report
	for i, name := range []string{"mtc", "profile"} {
		rep, err := checker.Run(context.Background(), name, h, checker.Options{Level: core.SSER})
		if err != nil {
			t.Fatalf("%s: %s: %v", tag, name, err)
		}
		rep.Timings = nil
		reps[i] = rep
	}
	return reps
}

// TestSSERTimeShiftAndScale applies two shifts and two scalings to every
// history of the differential corpus and of corpus.Shapes, and requires
// both reports to be unchanged. The corpora must include histories that
// violate SSER through real time alone, or the property bites nothing.
func TestSSERTimeShiftAndScale(t *testing.T) {
	transforms := []struct {
		name string
		f    func(int64) int64
	}{
		{"shift by 1", func(x int64) int64 { return x + 1 }},
		{"shift by 1e12", func(x int64) int64 { return x + 1_000_000_000_000 }},
		{"scale by 2", func(x int64) int64 { return 2 * x }},
		{"scale by 1000", func(x int64) int64 { return 1000 * x }},
	}
	histories, inverted := 0, 0
	check := func(h *history.History, tag string) {
		histories++
		want := sserReports(t, h, tag)
		if !want[0].OK && want[1].StrongestLevel == core.SER {
			inverted++
		}
		for _, tr := range transforms {
			if got := sserReports(t, retimed(h, tr.f), tag+"/"+tr.name); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s moved a report\ngot  %+v\nwant %+v", tag, tr.name, got, want)
			}
		}
	}
	corpus.Differential(corpus.Shape{Seeds: 30, Sessions: 3, Objects: 4, Bugs: 5}, check)
	for _, size := range []struct {
		txns int
		seed int64
	}{{24, 1}, {200, 2}} {
		for _, s := range corpus.Shapes(size.txns, size.seed) {
			check(s.H, fmt.Sprintf("%s/%d", s.Name, size.txns))
		}
	}
	t.Logf("%d histories, %d violate SSER through real time alone", histories, inverted)
	if inverted == 0 {
		t.Fatal("no history violates SSER through real time alone; the property is vacuous")
	}
}
