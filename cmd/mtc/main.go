// Command mtc runs the full end-to-end black-box isolation checking
// workflow of Figure 2: generate an MT workload, execute it against the
// in-memory transactional store (optionally with an injected production
// bug), and verify the resulting history at the requested isolation level
// with any registered checker.
//
// Examples:
//
//	mtc -level SI -sessions 10 -txns 100 -objects 20
//	mtc -level SER -bug postgresql-12.3 -seed 3
//	mtc -level SER -checker cobra
//	mtc -level rc -bug dirty-abort
//	mtc -profile -bug long-fork
//	mtc -level SI -stream -bug mariadb-galera-10.7.3
//	mtc -level SSER -lwt -sessions 8 -txns 50
//	mtc -level SI -out history.json
//	mtc -level SER -txns 100000 -out history.mtcb.gz
//	mtc -checkers
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/faults"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/runner"
	_ "mtc/internal/shard" // links the driver behind -shard (checker.Options.Shard)
	"mtc/internal/workload"
)

func main() {
	var (
		level        = flag.String("level", "SI", "isolation level to check: SSER, SER, SI, CAUSAL, RA or RC")
		checkerName  = flag.String("checker", "mtc", "verification engine (see -checkers)")
		profileRun   = flag.Bool("profile", false, "evaluate the full isolation lattice and session guarantees in one pass, reporting the strongest level satisfied")
		listCheckers = flag.Bool("checkers", false, "list registered checkers and exit")
		stream       = flag.Bool("stream", false, "verify online while the run executes (incremental checker; SER or SI)")
		sessions     = flag.Int("sessions", 10, "number of client sessions")
		txns         = flag.Int("txns", 100, "transactions per session")
		objects      = flag.Int("objects", 20, "number of objects")
		dist         = flag.String("dist", "uniform", "object-access distribution: uniform, zipf, hotspot, exp")
		seed         = flag.Int64("seed", 1, "workload and fault seed")
		retries      = flag.Int("retries", 8, "retries per aborted transaction")
		bug          = flag.String("bug", "", "inject a Table II bug (see -bugs)")
		listBugs     = flag.Bool("bugs", false, "list injectable bugs and exit")
		lwt          = flag.Bool("lwt", false, "use lightweight transactions (CAS) and the linear-time SSER checker")
		out          = flag.String("out", "", "save the generated history to this file; the extension picks the codec (.json, .txt, .ndjson, .mtcb, any +.gz; no extension = JSON)")
		timeout      = flag.Duration("timeout", 0, "abort verification after this duration (0 = no limit)")
		window       = flag.Int("window", 0, "epoch-compaction window for streaming/incremental verification: keep O(window) checker state instead of the whole history (0 = unbounded)")
		shardN       = flag.Int("shard", 0, "component-sharded verification: decompose the history into key-disjoint components checked by up to this many workers (0 = off)")
		tenants      = flag.Int("tenants", 0, "split the workload into this many key-disjoint tenant groups (0/1 = single shared key space)")
		reportFormat = flag.String("report", "text", "verdict output: text (human summary) or json (full structured checker.Report)")
	)
	flag.Parse()

	if *listBugs {
		for _, b := range faults.Bugs() {
			fmt.Printf("%-24s %-20s violates %-4s  (%s)\n", b.Name, b.Anomaly, b.Claimed, b.Report)
		}
		return
	}
	if *listCheckers {
		for _, c := range checker.Default.All() {
			var lvls []string
			for _, l := range c.Levels() {
				lvls = append(lvls, string(l))
			}
			fmt.Printf("%-16s levels: %s\n", c.Name(), strings.Join(lvls, ", "))
		}
		return
	}

	lvl, err := checker.ParseLevel(*level)
	if err != nil {
		fatalf("%v", err)
	}
	switch *reportFormat {
	case "text", "json":
	default:
		fatalf("-report must be text or json, got %q", *reportFormat)
	}
	jsonReport := *reportFormat == "json"
	if jsonReport {
		infoOut = os.Stderr // keep stdout a single JSON document
	}
	if *shardN < 0 {
		fatalf("-shard must be >= 0, got %d", *shardN)
	}
	if *tenants < 0 {
		fatalf("-tenants must be >= 0, got %d", *tenants)
	}

	if *profileRun {
		if *stream {
			fatalf("-profile runs the batch lattice profiler; it cannot be combined with -stream")
		}
		if *lwt {
			fatalf("-profile runs the batch lattice profiler; it cannot be combined with -lwt")
		}
	}

	store, claimed := buildStore(lvl, *bug, *seed)
	if *lwt {
		if *stream {
			fatalf("-lwt runs the VLLWT pipeline; it cannot be combined with -stream")
		}
		if *checkerName != "mtc" {
			fatalf("-lwt runs the VLLWT pipeline; it cannot run -checker %s", *checkerName)
		}
		if jsonReport {
			fatalf("-report json renders checker.Report verdicts; the VLLWT pipeline has none")
		}
		runLWTPipeline(store, *sessions, *txns, *seed)
		return
	}

	w := workload.GenerateMT(workload.MTConfig{
		Sessions: *sessions, Txns: *txns, Objects: *objects,
		Dist: workload.DistKind(*dist), Seed: *seed, ReadOnlyFrac: 0.25,
		Tenants: *tenants,
	})

	if *window < 0 {
		fatalf("-window must be >= 0, got %d", *window)
	}
	if *stream {
		if *checkerName != "mtc" && *checkerName != "mtc-incremental" {
			fatalf("-stream verifies with the incremental MTC engine; it cannot run -checker %s", *checkerName)
		}
		if *window > 0 && *out != "" {
			fatalf("-window frees the history as the stream advances; it cannot be combined with -out")
		}
		runStreaming(store, w, *retries, claimed, *out, *timeout, *window, *shardN, jsonReport)
		return
	}

	res := runner.Run(store, w, runner.Config{Retries: *retries})
	infof("history: %d committed, %d aborted (abort rate %.1f%%)\n",
		res.Committed, res.Aborted, res.AbortRate()*100)

	if *out != "" {
		if serr := history.SaveFile(*out, res.H); serr != nil {
			fatalf("save: %v", serr)
		}
		infof("saved history to %s\n", *out)
	}

	ctx, cancel := verifyContext(*timeout)
	defer cancel()
	name := *checkerName
	if *profileRun {
		name = "profile"
	}
	v, err := checker.Run(ctx, name, res.H, checker.Options{Level: claimed, Window: *window, Shard: *shardN})
	if err != nil {
		fatalf("%v", err)
	}
	if jsonReport {
		emitJSONReport(v)
	} else {
		fmt.Println(v.Explain())
	}
	if !v.OK {
		os.Exit(1)
	}
}

// infoOut receives the run's progress lines. It is stdout for the human
// workflow and stderr under -report json, so a script piping stdout gets
// exactly one JSON document.
var infoOut io.Writer = os.Stdout

// infof prints one progress line to infoOut.
func infof(format string, args ...any) { fmt.Fprintf(infoOut, format, args...) }

// emitJSONReport writes the full structured checker.Report to stdout —
// the machine-readable verdict (the v1 wire shape) for scripts and CI.
func emitJSONReport(v checker.Report) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		fatalf("encode report: %v", err)
	}
}

// verifyContext derives the verification context from the -timeout flag.
func verifyContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.WithCancel(context.Background())
}

// runStreaming verifies the run online, reporting the violation at the
// commit that introduced it.
func runStreaming(store *kv.Store, w *workload.Workload, retries int, lvl core.Level, out string, timeout time.Duration, window, shardN int, jsonReport bool) {
	if lvl == core.SSER {
		fatalf("-stream supports SER and SI (SSER needs the full real-time order); use the batch checker")
	}
	ctx, cancel := verifyContext(timeout)
	defer cancel()
	res := runner.RunStream(ctx, store, w, runner.Config{Retries: retries, Window: window, Shard: shardN}, lvl)
	if res.Err != nil {
		infof("run cut short: %v\n", res.Err)
	}
	if jsonReport {
		// Save first: the report going to stdout must not skip -out.
		if out != "" {
			if err := history.SaveFile(out, res.H); err != nil {
				fatalf("save: %v", err)
			}
			infof("saved history to %s\n", out)
		}
		rep := checker.ReportFromResult("mtc-incremental", res.Verdict)
		rep.ShardComponents = res.Shards
		emitJSONReport(rep)
		if !res.Verdict.OK {
			os.Exit(1)
		}
		return
	}
	infof("history: %d committed, %d aborted (abort rate %.1f%%)\n",
		res.Committed, res.Aborted, res.AbortRate()*100)
	if res.Shards > 0 {
		infof("sharded verification: %d key-disjoint components, %d workers\n", res.Shards, shardN)
	}
	if window > 0 {
		infof("windowed verification: window %d, %d txns compacted over %d epochs\n",
			window, res.Verdict.CompactedTxns, res.Verdict.CompactedEpochs)
	}
	if out != "" {
		if err := history.SaveFile(out, res.H); err != nil {
			fatalf("save: %v", err)
		}
		infof("saved history to %s\n", out)
	}
	if !res.Verdict.OK {
		if res.ViolationAt > 0 {
			fmt.Printf("violation detected online at transaction %d of the stream", res.ViolationAt)
			if res.EarlyAborted {
				fmt.Printf(" (run aborted early)")
			}
			fmt.Println()
		} else {
			fmt.Println("violation detected at stream end (unresolved read)")
		}
	}
	fmt.Println(res.Verdict.Explain())
	if !res.Verdict.OK {
		os.Exit(1)
	}
}

// buildStore returns the store (faulty when a bug is requested) and the
// level to check (the bug's claimed level overrides -level).
func buildStore(lvl core.Level, bug string, seed int64) (*kv.Store, core.Level) {
	if bug == "" {
		mode := kv.ModeSI
		switch lvl {
		case core.SER, core.SSER:
			mode = kv.ModeSerializable
		}
		return kv.NewStore(mode), lvl
	}
	b := faults.BugByName(bug)
	if b == nil {
		fatalf("unknown bug %q; use -bugs to list", bug)
	}
	infof("injecting %s (%s, violates %s)\n", b.Name, b.Anomaly, b.Claimed)
	return b.NewStore(seed), b.Claimed
}

func runLWTPipeline(store *kv.Store, sessions, txns int, seed int64) {
	res := runner.RunLWT(store, runner.LWTConfig{
		Sessions: sessions, OpsPerSession: txns, Keys: 4, Seed: seed,
	})
	fmt.Printf("history: %d successful LWT ops, %d failed CAS attempts\n", res.Succeeded, res.Failed)
	r := core.VLLWT(res.Ops)
	if r.OK {
		fmt.Println("history satisfies SSER (linearizable)")
		return
	}
	fmt.Printf("history VIOLATES SSER on %s: %s\n", r.Key, r.Reason)
	os.Exit(1)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mtc: "+format+"\n", args...)
	os.Exit(2)
}
