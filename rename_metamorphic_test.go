// rename_metamorphic_test.go holds the batch engines to two metamorphic
// properties of key names. KeyIDs are ranks of the names, so a rename
// that keeps the names' lexicographic order must be invisible: the `mtc`
// SER/SI/SSER reports and the `profile` report come back identical,
// witness text included once the names are mapped back, unsharded and
// at Shard 2. A rename that permutes the order may change which witness
// is found first, but never the verdict, the strongest level or which
// transactions are anomalous.
package main

import (
	"cmp"
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/corpus"
	"mtc/internal/history"
)

// renamed returns a copy of h whose i-th key in name order is called
// fmt.Sprintf("rk%06d", rank(i, n)) among n keys, and a replacer that
// maps the new names in a rendered report back to the old ones.
func renamed(h *history.History, rank func(i, n int) int) (*history.History, *strings.Replacer) {
	var keys []history.Key
	for _, t := range h.Txns {
		for _, op := range t.Ops {
			keys = append(keys, op.Key)
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	to := make(map[history.Key]history.Key, len(keys))
	var back []string
	for i, k := range keys {
		to[k] = history.Key(fmt.Sprintf("rk%06d", rank(i, len(keys))))
		back = append(back, string(to[k]), string(k))
	}
	c := *h
	c.Txns = make([]history.Txn, len(h.Txns))
	for i, t := range h.Txns {
		ops := make([]history.Op, len(t.Ops))
		for j, op := range t.Ops {
			op.Key = to[op.Key]
			ops[j] = op
		}
		t.Ops = ops
		c.Txns[i] = t
	}
	return &c, strings.NewReplacer(back...)
}

// renameReports runs `mtc` at SER, SI and SSER and `profile` on h at
// shard, timings stripped and key names mapped through back.
func renameReports(t *testing.T, h *history.History, shard int, back *strings.Replacer, tag string) []checker.Report {
	t.Helper()
	var reps []checker.Report
	for _, run := range []struct {
		name string
		lvl  checker.Level
	}{{"mtc", core.SER}, {"mtc", core.SI}, {"mtc", core.SSER}, {"profile", core.SER}} {
		rep, err := checker.Run(context.Background(), run.name, h, checker.Options{Level: run.lvl, Shard: shard})
		if err != nil {
			t.Fatalf("%s: %s/%s: %v", tag, run.name, run.lvl, err)
		}
		rep.Timings = nil
		rep.Detail = back.Replace(rep.Detail)
		rep.Anomalies = slices.Clone(rep.Anomalies)
		for i := range rep.Anomalies {
			rep.Anomalies[i].Key = history.Key(back.Replace(string(rep.Anomalies[i].Key)))
		}
		rep.Cycle = slices.Clone(rep.Cycle)
		for i := range rep.Cycle {
			rep.Cycle[i].Obj = back.Replace(rep.Cycle[i].Obj)
		}
		rep.Rungs = slices.Clone(rep.Rungs)
		for i := range rep.Rungs {
			rep.Rungs[i].Witness = back.Replace(rep.Rungs[i].Witness)
		}
		rep.Guarantees = slices.Clone(rep.Guarantees)
		for i := range rep.Guarantees {
			rep.Guarantees[i].Witness = back.Replace(rep.Guarantees[i].Witness)
		}
		reps = append(reps, rep)
	}
	return reps
}

// verdicts projects a report onto what an order-permuting rename keeps:
// OK, the strongest level and the set of anomalous (kind, txn) pairs.
type verdict struct {
	ok        bool
	strongest checker.Level
	anomalous []history.Anomaly // Kind and Txn only, sorted, distinct
}

func verdicts(reps []checker.Report) []verdict {
	out := make([]verdict, len(reps))
	for i, rep := range reps {
		v := verdict{ok: rep.OK, strongest: rep.StrongestLevel}
		for _, a := range rep.Anomalies {
			v.anomalous = append(v.anomalous, history.Anomaly{Kind: a.Kind, Txn: a.Txn})
		}
		slices.SortFunc(v.anomalous, func(a, b history.Anomaly) int {
			return cmp.Or(cmp.Compare(a.Txn, b.Txn), cmp.Compare(a.Kind, b.Kind))
		})
		v.anomalous = slices.Compact(v.anomalous)
		out[i] = v
	}
	return out
}

// TestKeyRenames renames the keys of every history of a multi-tenant
// differential corpus and of corpus.Shapes, once keeping and once
// reversing their name order, and checks both properties unsharded and
// at Shard 2.
func TestKeyRenames(t *testing.T) {
	identity := strings.NewReplacer()
	keep := func(i, n int) int { return i }
	reverse := func(i, n int) int { return n - 1 - i }
	histories, violating, moved := 0, 0, 0
	check := func(h *history.History, tag string) {
		histories++
		for _, shard := range []int{0, 2} {
			tag := fmt.Sprintf("%s/shard %d", tag, shard)
			want := renameReports(t, h, shard, identity, tag)
			if shard == 0 && !want[0].OK {
				violating++
			}
			kept, back := renamed(h, keep)
			if got := renameReports(t, kept, shard, back, tag+"/order kept"); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: an order-preserving rename moved a report\ngot  %+v\nwant %+v", tag, got, want)
			}
			permuted, back := renamed(h, reverse)
			got := renameReports(t, permuted, shard, back, tag+"/order reversed")
			if !reflect.DeepEqual(got, want) {
				moved++
			}
			if !reflect.DeepEqual(verdicts(got), verdicts(want)) {
				t.Fatalf("%s: an order-permuting rename moved a verdict\ngot  %+v\nwant %+v", tag, verdicts(got), verdicts(want))
			}
		}
	}
	corpus.Differential(corpus.Shape{Seeds: 40, Sessions: 4, Objects: 3, Tenants: true, Bugs: 5}, check)
	for _, txns := range []int{24, 200, 1200} {
		for _, s := range corpus.Shapes(txns, 9) {
			check(s.H, fmt.Sprintf("%s/%d", s.Name, txns))
		}
	}
	// The order-preserving property bites only if some witness depends
	// on key order: reversing it must move at least one whole report.
	if violating < histories/4 || moved == 0 {
		t.Fatalf("%d of %d histories violate SER and reversing key order moved %d reports: the properties bite too little",
			violating, histories, moved)
	}
	t.Logf("%d histories, %d violating SER, %d reports moved by reversing key order", histories, violating, moved)
}
