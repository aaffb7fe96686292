// Command mtc-gen generates histories to files without verifying them:
// either by executing a workload against the in-memory store, or
// synthetically (LWT histories with controlled concurrency, or the 14
// anomaly fixtures of Figure 5).
//
// Examples:
//
//	mtc-gen -kind mt -sessions 10 -txns 100 -objects 20 -o h.json
//	mtc-gen -kind gt -ops 20 -o gt.json
//	mtc-gen -kind fixture -name WriteSkew -o ws.json
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/runner"
	"mtc/internal/workload"
)

func main() {
	var (
		kind     = flag.String("kind", "mt", "workload kind: mt, gt, fixture")
		sessions = flag.Int("sessions", 10, "sessions")
		txns     = flag.Int("txns", 100, "transactions per session")
		objects  = flag.Int("objects", 20, "objects")
		ops      = flag.Int("ops", 16, "operations per transaction (gt)")
		dist     = flag.String("dist", "uniform", "distribution: uniform, zipf, hotspot, exp")
		mode     = flag.String("mode", "SI", "store mode: SI, SER, 2PL")
		seed     = flag.Int64("seed", 1, "seed")
		name     = flag.String("name", "", "fixture name (kind=fixture); empty lists them")
		out      = flag.String("o", "history.json", "output file; the extension picks the codec: .json, .ndjson or .mtcb, optionally .gz")
	)
	flag.Parse()

	var h *history.History
	switch *kind {
	case "fixture":
		if *name == "" {
			for _, f := range history.Fixtures() {
				fmt.Println(f.Name)
			}
			return
		}
		f := history.FixtureByName(*name)
		if f == nil {
			fatalf("unknown fixture %q", *name)
		}
		h = f.H
	case "mt", "gt":
		if *sessions <= 0 || *txns <= 0 || *objects <= 0 || *ops <= 0 {
			fatalf("-sessions, -txns, -objects and -ops must be > 0, got %d, %d, %d, %d", *sessions, *txns, *objects, *ops)
		}
		if !slices.Contains(workload.Distributions(), workload.DistKind(*dist)) {
			fatalf("-dist must be one of %v, got %q", workload.Distributions(), *dist)
		}
		var m kv.Mode
		switch *mode {
		case "SI":
			m = kv.ModeSI
		case "SER":
			m = kv.ModeSerializable
		case "2PL":
			m = kv.Mode2PL
		default:
			fatalf("unknown mode %q", *mode)
		}
		s := kv.NewStore(m)
		var w *workload.Workload
		if *kind == "mt" {
			w = workload.GenerateMT(workload.MTConfig{
				Sessions: *sessions, Txns: *txns, Objects: *objects,
				Dist: workload.DistKind(*dist), Seed: *seed, ReadOnlyFrac: 0.25,
			})
		} else {
			w = workload.GenerateGT(workload.GTConfig{
				Sessions: *sessions, Txns: *txns, Objects: *objects,
				OpsPerTxn: *ops, Dist: workload.DistKind(*dist), Seed: *seed,
			})
		}
		res := runner.Run(s, w, runner.Config{Retries: 8})
		fmt.Printf("generated %d committed / %d aborted transactions\n", res.Committed, res.Aborted)
		h = res.H
	default:
		fatalf("unknown kind %q", *kind)
	}

	if err := history.SaveFile(*out, h); err != nil {
		fatalf("save: %v", err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mtc-gen: "+format+"\n", args...)
	os.Exit(2)
}
