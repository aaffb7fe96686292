package runner

import (
	"mtc/internal/elle"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/workload"
)

// laRecord is one executed list-append transaction attempt.
type laRecord struct {
	ops       []elle.Op
	start     int64
	finish    int64
	committed bool
}

// runListTxn executes a single list-append transaction attempt, the
// list-workload counterpart of runTxn: reads record the entire observed
// list. Non-list specs are ignored.
func runListTxn(s *kv.Store, si int, spec workload.TxnSpec, values *int, spin int) (laRecord, bool) {
	tx := s.Begin()
	var ops []elle.Op
	ok := true
	for _, op := range spec.Ops {
		latency(spin)
		switch op.Kind {
		case workload.SpecAppend:
			v := uniqueValue(si, *values)
			*values++
			if err := tx.Append(op.Key, v); err != nil {
				ok = false
			} else {
				ops = append(ops, elle.Op{Append: true, Key: op.Key, Value: v})
			}
		case workload.SpecReadList:
			lst, err := tx.ReadList(op.Key)
			if err != nil {
				ok = false
			} else {
				cp := make([]history.Value, len(lst))
				copy(cp, lst)
				ops = append(ops, elle.Op{Key: op.Key, List: cp})
			}
		}
		if !ok {
			break
		}
	}
	if ok {
		ok = tx.Commit() == nil
	}
	return laRecord{
		ops: ops, start: tx.StartTS(), finish: tx.FinishTS(),
		committed: tx.Committed(),
	}, ok
}

// RunListAppend executes a list-append workload plan (SpecAppend /
// SpecReadList operations) against the store and returns the rich
// list-append history the Elle baseline consumes: reads carry the entire
// observed list, not just the last element.
func RunListAppend(s *kv.Store, w *workload.Workload, cfg Config) (*elle.History, *Result) {
	// List keys start absent; no Init needed (empty list == initial).
	perSession := make([][]laRecord, len(w.Sessions))
	runSessions(s, w, cfg, nil, runListTxn,
		func(si int, r laRecord) { perSession[si] = append(perSession[si], r) }, nil)

	res := &Result{}
	h := &elle.History{Sessions: make([][]int, len(w.Sessions))}
	for si, recs := range perSession {
		for _, r := range recs {
			if !res.tally(r.committed, cfg) {
				continue
			}
			id := len(h.Txns)
			h.Txns = append(h.Txns, elle.Txn{
				ID: id, Session: si, Ops: r.ops,
				Committed: r.committed, Start: r.start, Finish: r.finish,
			})
			h.Sessions[si] = append(h.Sessions[si], id)
		}
	}
	return h, res
}
