package core_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mtc/internal/core"
	"mtc/internal/faults"
	"mtc/internal/history"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

// serialCheck is CheckCtx with the pre-check and the derivation in
// sequence, the derivation only on a clean history: the reference the
// overlapped pipeline is held to.
func serialCheck(ctx context.Context, ix *history.Index, lvl core.Level) (core.Result, error) {
	if as := history.CheckInternalIndexed(ix); len(as) > 0 {
		return core.Result{Level: lvl, Anomalies: as, NumTxns: ix.NumTxns()}, nil
	}
	d, err := core.BuildDependencyCtx(ctx, ix)
	if err != nil {
		return core.Result{}, err
	}
	return d.Rung(ctx, lvl)
}

// anomalyAmidChain is a 600-transaction read-modify-write chain over
// four keys with one pre-check anomaly of kind planted in its middle, so
// the derivation has real work to do beside a failing pre-check.
func anomalyAmidChain(kind history.AnomalyKind) *history.History {
	keys := []history.Key{"a", "b", "c", "d"}
	b := history.NewBuilder(keys...)
	last := map[history.Key]history.Value{}
	for i := 0; i < 600; i++ {
		k := keys[i%len(keys)]
		v, nv := last[k], history.Value(1000+i)
		last[k] = nv
		if i != 300 {
			b.Txn(0, history.R(k, v), history.W(k, nv))
			continue
		}
		switch kind {
		case history.AbortedRead: // G1a
			b.AbortedTxn(1, history.R(k, v), history.W(k, 7))
			b.Txn(2, history.R(k, 7))
			last[k] = v
		case history.IntermediateRead: // G1b
			b.Txn(1, history.R(k, v), history.W(k, 8), history.W(k, nv))
			b.Txn(2, history.R(k, 8))
		case history.NotMyLastWrite: // INT
			b.Txn(1, history.R(k, v), history.W(k, 9), history.W(k, nv), history.R(k, 9))
		}
	}
	return b.Build()
}

// overlapCorpus is every faults.LevelBugs preset over a few seeds, the
// pre-check fixtures, and G1a, G1b and INT anomalies amid a long chain.
func overlapCorpus() map[string]*history.History {
	hs := map[string]*history.History{}
	for _, lb := range faults.LevelBugs() {
		for seed := int64(1); seed <= 4; seed++ {
			w := workload.GenerateLevelTargeted(lb.Breaks, workload.TargetedConfig{Sessions: 4, Txns: 40, Objects: 3, Seed: seed})
			hs[lb.Anomaly+"/"+string(rune('0'+seed))] = runner.Run(lb.NewStore(seed), w, runner.Config{Retries: 2}).H
		}
	}
	for _, f := range history.Fixtures() {
		hs["fixture/"+f.Name] = f.H
	}
	for _, k := range []history.AnomalyKind{history.AbortedRead, history.IntermediateRead, history.NotMyLastWrite} {
		hs["chain/"+k.String()] = anomalyAmidChain(k)
	}
	return hs
}

// TestPrecheckBesideDerivationKeepsResults: running the pre-check beside
// the derivation changes no verdict. CheckCtx returns serialCheck's
// Result at every level; ProfileCtx's rungs agree with it on every
// verdict and, when the pre-check found anomalies, carry exactly those.
// On the anomaly histories the
// derivation runs to its end beside a failing pre-check; CI runs this
// under -race.
func TestPrecheckBesideDerivationKeepsResults(t *testing.T) {
	ctx := context.Background()
	planted := 0
	for name, h := range overlapCorpus() {
		ix := history.NewIndex(h)
		as := history.CheckInternalIndexed(ix)
		if len(as) > 0 {
			planted++
		}
		for _, lvl := range core.Lattice() {
			got, err := core.CheckCtx(ctx, ix, lvl)
			want, werr := serialCheck(ctx, ix, lvl)
			if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at %s: CheckCtx (%+v, %v), serial (%+v, %v)", name, lvl, got, err, want, werr)
			}
		}
		p, err := core.ProfileCtx(ctx, ix)
		if err != nil {
			t.Fatalf("%s: ProfileCtx: %v", name, err)
		}
		for _, r := range p.Rungs {
			if len(as) > 0 && !reflect.DeepEqual(r.Anomalies, as) {
				t.Fatalf("%s: profile rung %s anomalies %v, pre-check %v", name, r.Level, r.Anomalies, as)
			}
			if want, _ := serialCheck(ctx, ix, r.Level); r.OK != want.OK {
				t.Fatalf("%s: profile rung %s OK=%v, CheckCtx OK=%v", name, r.Level, r.OK, want.OK)
			}
		}
		if len(as) > 0 && (p.Strongest != core.None || p.NumEdges != 0) {
			t.Fatalf("%s: pre-check failed but the profile reads strongest %s, %d edges", name, p.Strongest, p.NumEdges)
		}
	}
	if planted < 10 {
		t.Fatalf("corpus has %d histories the pre-check fails, want at least 10", planted)
	}
}

// TestCancelledCheckJoinsThePrecheck: a cancelled context returns its
// error from CheckCtx and ProfileCtx, clean history or not, and the
// pre-check's goroutine is joined before either returns.
func TestCancelledCheckJoinsThePrecheck(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, h := range []*history.History{history.SerialHistory(3000, "x", "y"), anomalyAmidChain(history.AbortedRead)} {
		ix := history.NewIndex(h)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := core.CheckCtx(ctx, ix, core.SER); !errors.Is(err, context.Canceled) {
			t.Fatalf("CheckCtx on a cancelled context: %v", err)
		}
		if _, err := core.ProfileCtx(ctx, ix); !errors.Is(err, context.Canceled) {
			t.Fatalf("ProfileCtx on a cancelled context: %v", err)
		}
		// Cancelled while the derivation runs: the verdict is the
		// context's error, or the pre-check's anomalies when it found
		// some, and never a panic.
		ctx, cancel = context.WithTimeout(context.Background(), time.Microsecond)
		res, err := core.CheckCtx(ctx, ix, core.SER)
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) || err == nil && !res.OK && len(res.Anomalies) == 0 {
			t.Fatalf("CheckCtx under a deadline: (%+v, %v)", res, err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after the checks, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}
