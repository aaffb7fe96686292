// Bughunt rediscovers the six production isolation bugs of Table II on
// the fault-injected substrate: for each bug it stresses the store with
// randomized mini-transaction (or lightweight-transaction) workloads until
// the claimed isolation level is violated, then prints the counterexample
// — the same workflow the paper uses against MariaDB Galera, MongoDB,
// Dgraph, PostgreSQL and Cassandra.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"mtc/internal/core"
	"mtc/internal/faults"
	"mtc/internal/runner"
	"mtc/internal/workload"
	"mtc/pkg/mtc"
)

func main() {
	for _, bug := range faults.Bugs() {
		fmt.Printf("=== %s: %s (claims %s) ===\n", bug.Name, bug.Anomaly, bug.Claimed)
		fmt.Printf("    report: %s\n", bug.Report)
		start := time.Now()
		if bug.LWT {
			huntLWT(bug)
		} else {
			hunt(bug)
		}
		fmt.Printf("    elapsed: %.2fs\n\n", time.Since(start).Seconds())
	}
}

// hunt stress-tests the bug's store with MT workloads over increasing
// seeds until the claimed level is violated.
func hunt(bug faults.Bug) {
	for seed := int64(1); seed <= 20; seed++ {
		store := bug.NewStore(seed)
		plan := workload.GenerateMT(workload.MTConfig{
			Sessions: 8, Txns: 150, Objects: 3,
			Dist: workload.Exponential, Seed: seed, ReadOnlyFrac: 0.3,
		})
		res := runner.Run(store, plan, runner.Config{Retries: 4})
		verdict, err := mtc.Check(context.Background(), "mtc", res.H, mtc.Options{Level: bug.Claimed})
		if err != nil {
			log.Fatal(err)
		}
		if verdict.OK {
			continue
		}
		fmt.Printf("    BUG FOUND on seed %d after %d committed txns\n", seed, res.Committed)
		fmt.Printf("    %s\n", strings.ReplaceAll(verdict.Explain(), "\n", "\n    "))
		return
	}
	fmt.Println("    bug did not manifest in 20 rounds (try more seeds)")
}

// huntLWT does the same through the lightweight-transaction client and the
// linear-time linearizability checker.
func huntLWT(bug faults.Bug) {
	for seed := int64(1); seed <= 20; seed++ {
		store := bug.NewStore(seed)
		res := runner.RunLWT(store, runner.LWTConfig{
			Sessions: 8, OpsPerSession: 50, Keys: 2, Seed: seed,
		})
		verdict := core.VLLWT(res.Ops)
		if verdict.OK {
			continue
		}
		fmt.Printf("    BUG FOUND on seed %d after %d successful LWT ops\n", seed, res.Succeeded)
		fmt.Printf("    on key %s: %s\n", verdict.Key, verdict.Reason)
		return
	}
	fmt.Println("    bug did not manifest in 20 rounds (try more seeds)")
}
