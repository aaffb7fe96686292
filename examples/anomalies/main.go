// Anomalies renders Table I / Figure 5: the 14 well-documented isolation
// anomalies, each expressed as a mini-transaction history, with the
// verdict every strong-isolation checker reaches on it. WriteSkew is the
// single anomaly admitted by SI — exactly the SER/SI gap.
package main

import (
	"context"
	"fmt"
	"log"

	"mtc/internal/history"
	"mtc/pkg/mtc"
)

func main() {
	fmt.Printf("%-28s %-10s %6s %6s %6s\n", "anomaly", "pre-check", "SSER", "SER", "SI")
	for _, f := range history.Fixtures() {
		pre := "-"
		if f.PreCheck {
			pre = f.AnomalyAt.String()
			if len(pre) > 10 {
				pre = pre[:10]
			}
		}
		fmt.Printf("%-28s %-10s %6s %6s %6s\n", f.Name, pre,
			mark(check(f.H, mtc.SSER)), mark(check(f.H, mtc.SER)), mark(check(f.H, mtc.SI)))
	}

	fmt.Println("\ncounterexamples (dependency-level anomalies):")
	for _, name := range []string{"LostUpdate", "WriteSkew", "LongFork"} {
		f := history.FixtureByName(name)
		fmt.Printf("\n%s:\n", name)
		for i := range f.H.Txns {
			fmt.Printf("  %s\n", f.H.Txns[i].String())
		}
		if r := check(f.H, mtc.SER); !r.OK {
			fmt.Printf("  SER: violated: %s\n", r.Detail)
		}
		if r := check(f.H, mtc.SI); !r.OK {
			fmt.Printf("  SI:  violated: %s\n", r.Detail)
		} else {
			fmt.Println("  SI:  satisfied")
		}
	}
}

// check runs the MTC engine on h at lvl.
func check(h *mtc.History, lvl mtc.Level) mtc.Report {
	rep, err := mtc.Check(context.Background(), "mtc", h, mtc.Options{Level: lvl})
	if err != nil {
		log.Fatal(err)
	}
	return rep
}

// mark renders a verdict: "viol" when the checker rejects, "ok" otherwise.
func mark(r mtc.Report) string {
	if r.OK {
		return "ok"
	}
	return "viol"
}
