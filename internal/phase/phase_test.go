package phase

import (
	"context"
	"testing"
	"time"
)

// TestLapsFollowOneAnother: the rows come back in the order the laps
// ran, each phase once, the first lap opening at Start, so they sum to
// the wall clock between Start and the call that closes the last lap.
func TestLapsFollowOneAnother(t *testing.T) {
	before := time.Now()
	ctx, timings := Start(context.Background())
	time.Sleep(2 * time.Millisecond)
	Lap(ctx, "a") // charged the sleep before it: the first lap opens at Start
	Lap(ctx, "b")
	time.Sleep(2 * time.Millisecond)
	Lap(ctx, "c")
	rows := timings()
	wall := float64(time.Since(before)) / float64(time.Millisecond)
	if len(rows) != 3 || rows[0].Phase != "a" || rows[1].Phase != "b" || rows[2].Phase != "c" {
		t.Fatalf("rows = %v, want a, b, c", rows)
	}
	if rows[0].Millis < 2 || rows[1].Millis < 2 {
		t.Fatalf("rows = %v: a and b each span a 2 ms sleep", rows)
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.Millis
	}
	if sum > wall {
		t.Fatalf("rows sum to %.3f ms, more than the %.3f ms around them", sum, wall)
	}
}

// TestStartShadowsOuterRecorder: a recorder started under another
// takes every lap until its rows are taken; the outer one sees none.
func TestStartShadowsOuterRecorder(t *testing.T) {
	outer, outerRows := Start(context.Background())
	Lap(outer, "partition")
	inner, innerRows := Start(outer)
	Lap(inner, "derive")
	Lap(inner, "search")
	if rows := innerRows(); len(rows) != 2 || rows[0].Phase != "derive" || rows[1].Phase != "search" {
		t.Fatalf("inner rows = %v", rows)
	}
	if rows := outerRows(); len(rows) != 1 || rows[0].Phase != "partition" {
		t.Fatalf("outer rows = %v", rows)
	}
}

// TestRecorderKeepsParentContext: the recorder is the context the check
// runs under, so cancellation and values still reach through it.
func TestRecorderKeepsParentContext(t *testing.T) {
	type k struct{}
	parent, cancel := context.WithCancel(context.WithValue(context.Background(), k{}, "v"))
	ctx, _ := Start(parent)
	if ctx.Value(k{}) != "v" {
		t.Fatal("recorder hides the parent's values")
	}
	cancel()
	<-ctx.Done()
	if ctx.Err() != context.Canceled {
		t.Fatalf("Err = %v after the parent was cancelled", ctx.Err())
	}
}

// TestLapWithoutRecorderAllocatesNothing: engines lap unconditionally,
// also on the paths no recorder times (benchmarks, the online engine).
func TestLapWithoutRecorderAllocatesNothing(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, ctx := range []context.Context{context.Background(), cancelled} {
		if n := testing.AllocsPerRun(100, func() { Lap(ctx, "derive") }); n != 0 {
			t.Fatalf("Lap without a recorder allocates %v", n)
		}
	}
}
