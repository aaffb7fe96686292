package polygraph

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mtc/internal/history"
	"mtc/internal/sat"
)

// randomHistory builds a small random register history: blind writes and
// reads of previously written values, several sessions, so the polygraph
// carries both known edges and undetermined writer-pair constraints.
func randomHistory(rng *rand.Rand, sessions, txns, keys int) *history.History {
	names := make([]history.Key, keys)
	for i := range names {
		names[i] = history.Key(string(rune('a' + i)))
	}
	b := history.NewBuilder(names...)
	written := map[history.Key][]history.Value{}
	for _, k := range names {
		written[k] = []history.Value{0}
	}
	next := history.Value(1)
	for s := 0; s < sessions; s++ {
		for i := 0; i < txns; i++ {
			k := names[rng.Intn(keys)]
			switch rng.Intn(3) {
			case 0: // blind write
				b.Txn(s, history.W(k, next))
				written[k] = append(written[k], next)
				next++
			case 1: // read some written value
				vs := written[k]
				b.Txn(s, history.R(k, vs[rng.Intn(len(vs))]))
			default: // RMW
				vs := written[k]
				b.Txn(s, history.R(k, vs[rng.Intn(len(vs))]), history.W(k, next))
				written[k] = append(written[k], next)
				next++
			}
		}
	}
	return b.Build()
}

// clone duplicates a polygraph so one build can be pruned repeatedly.
func clone(p *Polygraph) *Polygraph {
	return &Polygraph{
		N:     p.N,
		Known: append([]sat.Edge(nil), p.Known...),
		Cons:  append([]sat.Constraint(nil), p.Cons...),
	}
}

// TestPruneParMatchesSerial proves Prune at par > 1 is observationally
// equal to the serial path (par 1) at every parallelism: same verdict, same forced count,
// same residual constraints, and the same known edges in the same order.
func TestPruneParMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	constrained := 0
	for trial := 0; trial < 60; trial++ {
		h := randomHistory(rng, 3, 8, 2+rng.Intn(3))
		base := Build(history.NewIndex(h))
		if len(base.Cons) > 0 {
			constrained++
		}
		for _, mode := range []Mode{SER, SI} {
			ref := clone(base)
			refOK, err := ref.Prune(ctx, mode, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{2, 4, 0} {
				got := clone(base)
				gotOK, err := got.Prune(ctx, mode, par)
				if err != nil {
					t.Fatal(err)
				}
				if gotOK != refOK || got.Forced != ref.Forced {
					t.Fatalf("trial %d mode %d par %d: ok=%v forced=%d, serial ok=%v forced=%d",
						trial, mode, par, gotOK, got.Forced, refOK, ref.Forced)
				}
				if !reflect.DeepEqual(got.Known, ref.Known) {
					t.Fatalf("trial %d mode %d par %d: known edges diverge", trial, mode, par)
				}
				if !reflect.DeepEqual(got.Cons, ref.Cons) {
					t.Fatalf("trial %d mode %d par %d: residual constraints diverge", trial, mode, par)
				}
			}
		}
	}
	if constrained < 10 {
		t.Fatalf("corpus too easy: only %d/60 polygraphs had constraints", constrained)
	}
}

// TestPruneParHonorsDeadline: a huge blind-write polygraph under a tiny
// deadline must stop inside the parallel fixpoint, not run to completion.
func TestPruneParHonorsDeadline(t *testing.T) {
	h := history.BlindWriteHistory(4, 220)
	p := Build(history.NewIndex(h))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.Prune(ctx, SER, 4)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}
