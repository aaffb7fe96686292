// Package phase times the phases of one check; it is the one source of
// checker.Report.Timings. Start puts a lap recorder in a context and an
// engine calls Lap as it enters each phase. Laps follow one another from
// Start on, so a recorder's rows sum to the wall clock until they close.
package phase

import (
	"context"
	"time"
)

// Timing is the wall-clock cost of one phase, in milliseconds.
type Timing struct {
	Phase  string  `json:"phase"`
	Millis float64 `json:"millis"`
}

type key struct{}

// recorder is the context Start returns; only the check's goroutine laps it.
type recorder struct {
	context.Context
	name string    // the running lap; "" before the first
	at   time.Time // when it opened; the first lap opens at Start
	rows []Timing
}

func (r *recorder) Value(k any) any {
	if k == (key{}) {
		return r
	}
	return r.Context.Value(k)
}

// Start returns ctx carrying a fresh recorder, which shadows any it
// carries, and the function that closes the last lap and returns the rows.
func Start(ctx context.Context) (context.Context, func() []Timing) {
	r := &recorder{Context: ctx, at: time.Now(), rows: make([]Timing, 0, 6)}
	return r, r.stop
}

func (r *recorder) stop() []Timing { Lap(r, ""); return r.rows }

// Lap closes ctx's running lap and opens one named name. It does
// nothing, and allocates nothing, when ctx carries no recorder.
func Lap(ctx context.Context, name string) {
	r, ok := ctx.Value(key{}).(*recorder)
	if !ok {
		return
	}
	if r.name != "" {
		now := time.Now()
		r.rows = append(r.rows, Timing{r.name, float64(now.Sub(r.at)) / float64(time.Millisecond)})
		r.at = now
	}
	r.name = name
}
