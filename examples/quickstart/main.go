// Quickstart: the end-to-end black-box isolation checking workflow of
// Figure 2 in about thirty lines — generate a mini-transaction workload,
// execute it against a snapshot-isolated store with concurrent client
// sessions, and verify the collected history with the linear-time MTC-SI
// checker.
package main

import (
	"context"
	"fmt"
	"log"

	"mtc/internal/kv"
	"mtc/internal/runner"
	"mtc/internal/workload"
	"mtc/pkg/mtc"
)

func main() {
	// 1. Plan a mini-transaction workload: 8 sessions x 100 MTs over 20
	//    objects with zipfian (skewed) access.
	plan := workload.GenerateMT(workload.MTConfig{
		Sessions: 8,
		Txns:     100,
		Objects:  20,
		Dist:     workload.Zipfian,
		Seed:     42,
	})

	// 2. Execute it against an in-memory MVCC store running snapshot
	//    isolation, retrying aborted transactions up to 8 times.
	store := kv.NewStore(kv.ModeSI)
	res := runner.Run(store, plan, runner.Config{Retries: 8})
	fmt.Printf("executed %d transactions: %d committed, %d aborted (%.1f%% abort rate)\n",
		res.Attempts, res.Committed, res.Aborted, res.AbortRate()*100)

	// 3. Verify the history against SI. The MT read-modify-write pattern
	//    plus unique values make this a Theta(n) check.
	verdict := check(res.H, mtc.SI)
	fmt.Println(verdict.Explain())

	// The same history can be checked against stronger levels; an SI
	// store may legitimately fail SER (write skew is allowed under SI).
	fmt.Printf("SER verdict: %v, SSER verdict: %v\n",
		check(res.H, mtc.SER).OK, check(res.H, mtc.SSER).OK)
}

// check runs the MTC engine on h at lvl.
func check(h *mtc.History, lvl mtc.Level) mtc.Report {
	rep, err := mtc.Check(context.Background(), "mtc", h, mtc.Options{Level: lvl})
	if err != nil {
		log.Fatal(err)
	}
	return rep
}
