package runner

import (
	"testing"

	"mtc/internal/kv"
	"mtc/internal/workload"
)

func TestRunListAppendShape(t *testing.T) {
	s := kv.NewStore(kv.ModeSI)
	w := workload.GenerateListAppend(workload.ListAppendConfig{
		Sessions: 3, Txns: 30, Objects: 4, MaxTxnLen: 4, Seed: 1,
	})
	h, res := RunListAppend(s, w, Config{Retries: 6})
	if res.Committed == 0 {
		t.Fatal("nothing committed")
	}
	if res.Attempts != res.Committed+res.Aborted {
		t.Fatalf("accounting: %d != %d + %d", res.Attempts, res.Committed, res.Aborted)
	}
	if len(h.Sessions) != 3 {
		t.Fatalf("sessions = %d", len(h.Sessions))
	}
	// Every committed transaction's ops mirror its spec kinds; reads
	// carry copied lists that later appends must not mutate.
	for _, txn := range h.Txns {
		for _, op := range txn.Ops {
			if op.Append && op.List != nil {
				t.Fatal("append op must not carry a list")
			}
		}
	}
	// Session lists reference valid transactions in order.
	for si, ids := range h.Sessions {
		for _, id := range ids {
			if h.Txns[id].Session != si {
				t.Fatalf("txn %d session %d listed under %d", id, h.Txns[id].Session, si)
			}
		}
	}
}

func TestRunListAppendDropAborted(t *testing.T) {
	s := kv.NewStore(kv.ModeSI)
	w := workload.GenerateListAppend(workload.ListAppendConfig{
		Sessions: 6, Txns: 40, Objects: 1, MaxTxnLen: 4, Seed: 2,
	})
	h, res := RunListAppend(s, w, Config{Retries: 2, DropAborted: true})
	for _, txn := range h.Txns {
		if !txn.Committed {
			t.Fatal("aborted transaction kept despite DropAborted")
		}
	}
	if res.Attempts == 0 {
		t.Fatal("no attempts recorded")
	}
}

func TestRunListAppendTimestampsOrdered(t *testing.T) {
	s := kv.NewStore(kv.ModeSerializable)
	w := workload.GenerateListAppend(workload.ListAppendConfig{
		Sessions: 2, Txns: 20, Objects: 3, MaxTxnLen: 3, Seed: 3,
	})
	h, _ := RunListAppend(s, w, Config{Retries: 4})
	for _, ids := range h.Sessions {
		for j := 1; j < len(ids); j++ {
			a, b := h.Txns[ids[j-1]], h.Txns[ids[j]]
			if a.Finish >= b.Start {
				t.Fatalf("session not time-ordered: T%d finish %d >= T%d start %d",
					a.ID, a.Finish, b.ID, b.Start)
			}
		}
	}
}

func TestAbortRateEdges(t *testing.T) {
	r := Result{}
	if r.AbortRate() != 0 {
		t.Fatal("empty result rate")
	}
	r = Result{Attempts: 4, Aborted: 1}
	if r.AbortRate() != 0.25 {
		t.Fatalf("rate = %f", r.AbortRate())
	}
}

func TestUniqueValueDisjointAcrossSessions(t *testing.T) {
	seen := map[int64]bool{}
	for s := 0; s < 8; s++ {
		for n := 0; n < 100; n++ {
			v := int64(uniqueValue(s, n))
			if seen[v] {
				t.Fatalf("collision at session %d n %d", s, n)
			}
			seen[v] = true
		}
	}
}
