// Command mtc-client submits a history to a running mtc-serve instance
// through the pkg/client SDK and prints the verdict — the reference
// consumer of the v1 async job API.
//
// Examples:
//
//	mtc-client -server http://localhost:8080 -checkers
//	mtc-client -history h.json -level SER
//	mtc-client -history h.json -checker profile    # full lattice profile
//	mtc-client -history h.json -checker cobra -level SER -timeout 30s
//	mtc-client -history h.json -level SI -events     # follow the NDJSON stream
//	mtc-client -history h.json -level SI -stream -window 256
//	mtc-client -history h.json -level SER -distributed   # run on the checking fabric
//
// -stream replays the history transaction by transaction (in commit
// order) through a v1 streaming session instead of submitting a job —
// the client-side form of continuous verification. -window asks the
// server to epoch-compact the session, or an mtc-incremental job's
// replay, so its memory stays bounded.
//
// The history file may be in any codec mtc.LoadHistory reads — JSON,
// NDJSON or MTCB, optionally gzipped — sniffed from its content (as
// written by `mtc -out` or `mtc-gen -o`). "-" reads the standard JSON
// encoding from stdin. Exit status: 0 verdict OK, 1 violation, 2 usage
// or transport error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"mtc/pkg/client"
	"mtc/pkg/mtc"
)

func main() {
	var (
		server       = flag.String("server", "http://localhost:8080", "base URL of the mtc-serve instance")
		historyPath  = flag.String("history", "", "history file to verify: JSON, NDJSON or MTCB, optionally gzipped (\"-\" reads JSON from stdin)")
		checkerName  = flag.String("checker", "", "verification engine (empty = server default)")
		level        = flag.String("level", "", "isolation level: SSER, SER, SI, CAUSAL, RA or RC (empty = checker default)")
		timeout      = flag.Duration("timeout", 0, "per-job execution timeout sent to the server (0 = server default)")
		shardN       = flag.Int("shard", 0, "component-sharded verification: ask the server to decompose the history and check up to this many components concurrently (0 = off)")
		wait         = flag.Duration("wait", 2*time.Minute, "how long to wait for the verdict")
		events       = flag.Bool("events", false, "follow the job's NDJSON event stream instead of polling")
		listCheckers = flag.Bool("checkers", false, "list the server's registered checkers and exit")
		stream       = flag.Bool("stream", false, "replay the history through a v1 streaming session instead of a job")
		window       = flag.Int("window", 0, "epoch-compaction window for a -stream session or an mtc-incremental job (0 = server default)")
		distributed  = flag.Bool("distributed", false, "run the job on the server's checking fabric (requires a coordinator, i.e. mtc-serve -fabric-wal)")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *wait)
	defer cancel()
	c := client.New(*server)

	if *listCheckers {
		infos, err := c.Checkers(ctx)
		if err != nil {
			fatalf("%v", err)
		}
		for _, ci := range infos {
			fmt.Printf("%-16s levels: %v\n", ci.Name, ci.Levels)
		}
		return
	}

	if *historyPath == "" {
		fatalf("missing -history (use -checkers to list engines)")
	}
	h, err := loadHistory(*historyPath)
	if err != nil {
		fatalf("read history: %v", err)
	}
	if *level != "" {
		if _, lerr := mtc.ParseLevel(*level); lerr != nil {
			fatalf("%v", lerr)
		}
	}
	if *stream {
		// Streaming replays through the session API, which always runs
		// the mtc-incremental engine server-side: the job-only flags are
		// rejected rather than silently dropped.
		if *checkerName != "" && *checkerName != "mtc-incremental" {
			fatalf("-stream replays through the mtc-incremental session engine; it cannot run -checker %s", *checkerName)
		}
		if *events {
			fatalf("-events follows a job's NDJSON stream; it cannot be combined with -stream")
		}
		if *shardN != 0 {
			fatalf("-shard tunes job engines; the session engine ignores it (drop the flag)")
		}
		if *distributed {
			fatalf("-distributed submits a fabric job; it cannot be combined with -stream")
		}
		if *timeout > 0 {
			// In stream mode there is no server-side job deadline; honour
			// -timeout as the overall replay bound instead.
			cancel()
			ctx, cancel = context.WithTimeout(context.Background(), *timeout)
			defer cancel()
		}
		runStream(ctx, c, h, *level, *window)
		return
	}
	req := client.JobRequest{
		Checker: *checkerName, Level: *level,
		TimeoutMillis: timeout.Milliseconds(), Shard: *shardN,
		Window: *window, Distributed: *distributed,
		History: h,
	}

	job, err := c.SubmitJob(ctx, req)
	if err != nil {
		fatalf("submit: %v", err)
	}
	fmt.Printf("job %s submitted (checker %s, level %s, %d txns)\n", job.ID, job.Checker, job.Level, job.Txns)

	var report *mtc.Report
	if *events {
		err = c.StreamEvents(ctx, job.ID, func(ev client.JobEvent) error {
			fmt.Printf("event %d: %s\n", ev.Seq, ev.State)
			if ev.State == client.JobDone {
				report = ev.Report
			} else if ev.State == client.JobFailed {
				return fmt.Errorf("job failed: %s", ev.Error)
			} else if ev.State == client.JobCanceled {
				return fmt.Errorf("job canceled")
			}
			return nil
		})
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		job, err = c.WaitJob(ctx, job.ID)
		if err != nil {
			fatalf("wait: %v", err)
		}
		if job.State != client.JobDone {
			fatalf("job %s %s: %s", job.ID, job.State, job.Error)
		}
		report = job.Report
	}
	if report == nil {
		fatalf("job finished without a report")
	}

	fmt.Println(report.Explain())
	if !report.OK {
		os.Exit(1)
	}
}

// runStream replays h through a streaming session in commit order,
// batching transactions and printing the finalized verdict (including
// how much of the stream the server compacted away).
func runStream(ctx context.Context, c *client.Client, h *mtc.History, level string, window int) {
	if level == "" {
		level = "SI"
	}
	// The initial transaction opens the session; everything else streams.
	var keys []mtc.Key
	txns := h.Txns
	if h.HasInit && len(txns) > 0 {
		for _, op := range txns[0].Ops {
			keys = append(keys, op.Key)
		}
		txns = txns[1:]
	}
	// Feed in commit order — the order a live deployment would deliver.
	order := make([]int, len(txns))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return txns[order[a]].Finish < txns[order[b]].Finish })

	sess, st, err := c.OpenSessionOpts(ctx, client.SessionOpts{Level: level, Keys: keys, Window: window})
	if err != nil {
		fatalf("open session: %v", err)
	}
	closeSession := func() { _ = sess.Close(context.WithoutCancel(ctx)) }
	fmt.Printf("session %s opened (level %s, window %d)\n", sess.ID, st.Level, st.Window)

	const batch = 256
	payloads := make([]client.TxnPayload, 0, batch)
	flush := func() {
		if len(payloads) == 0 {
			return
		}
		if st, err = sess.Send(ctx, payloads...); err != nil {
			fatalf("send: %v", err)
		}
		payloads = payloads[:0]
	}
	for _, i := range order {
		t := txns[i]
		committed := t.Committed
		payloads = append(payloads, client.TxnPayload{
			Sess: t.Session, Ops: t.Ops, Committed: &committed,
			Start: t.Start, Finish: t.Finish,
		})
		if len(payloads) == batch {
			flush()
		}
	}
	flush()
	if st, err = sess.Verdict(ctx, true); err != nil {
		fatalf("verdict: %v", err)
	}
	closeSession()
	fmt.Printf("streamed %d txns; %d compacted over %d epochs, %d live on the server\n",
		st.Txns, st.CompactedTxns, st.CompactedEpochs, st.LiveTxns)
	if st.Report == nil {
		fatalf("final verdict carries no report")
	}
	fmt.Println(st.Report.Explain())
	if !st.Report.OK {
		os.Exit(1)
	}
}

func loadHistory(path string) (*mtc.History, error) {
	if path == "-" {
		return mtc.ReadHistory(os.Stdin)
	}
	return mtc.LoadHistory(path)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mtc-client: "+format+"\n", args...)
	os.Exit(2)
}
