// Command mtc-verify checks a saved history file against an isolation
// level using any registered checker (mtc -checkers lists them). The
// file's codec — JSON, NDJSON or MTCB, optionally gzipped — is sniffed
// from its content; a file none of them claims is refused.
//
// Examples:
//
//	mtc-verify -level SI history.json
//	mtc-verify -level SER -checker cobra history.json.gz
//	mtc-verify -level ser -checker profile history.mtcb
//	mtc-verify -level SI -stream -window 1024 capture.ndjson.gz
//	mtc-verify -level SER -stream capture.mtcb
//	mtc-verify -level SER -checker mtc-incremental -window 1024 history.mtcb
//
// Exit status: 0 the history satisfies the level, 1 it violates it,
// 2 usage errors (an unknown level or checker; a level the engine does
// not list, -stream's engine being mtc-incremental, whose registry row
// serves SI and SER; a -stream checker other than mtc or
// mtc-incremental; a negative -window, or a positive one for an engine
// other than mtc-incremental; a file that is unreadable or not a history
// in any codec).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/history"
)

func main() {
	var (
		level  = flag.String("level", "SI", "isolation level: SSER, SER, SI, CAUSAL, RA or RC (any case)")
		engine = flag.String("checker", "mtc", "verification engine, by registry name")
		stream = flag.Bool("stream", false, "verify an NDJSON or MTCB capture transaction-by-transaction without loading it (codec sniffed by content; mtc or mtc-incremental checker, SER or SI)")
		window = flag.Int("window", 0, "compact the online checker (-stream, or -checker mtc-incremental) to this window (0 = unbounded, always exact; with -stream, windowed verdicts are exact for captures recorded in ingestion order — for session-grouped files the window must exceed the capture's commit-to-record skew or stale reads report ThinAirRead)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mtc-verify [-level L] [-checker C] [-stream] [-window N] <history-file>")
		os.Exit(2)
	}
	name := *engine
	if *stream {
		if name != "mtc" && name != "mtc-incremental" {
			fatalf("-stream verifies with the incremental MTC engine; it cannot run -checker %s", name)
		}
		name = "mtc-incremental"
	}
	_, lvl, err := checker.Default.Resolve(name, *level)
	if err != nil {
		fatalf("%v", err)
	}

	if *window < 0 {
		fatalf("-window must be >= 0, got %d", *window)
	}
	if *window > 0 && name != "mtc-incremental" {
		fatalf("-window compacts the online checker; %s checks the whole history at once (use -checker mtc-incremental or -stream)", name)
	}
	if *stream {
		streamVerify(flag.Arg(0), lvl, *window)
		return
	}

	ix, err := history.LoadFileIndexed(flag.Arg(0))
	if err != nil {
		fatalf("load: %v", err)
	}
	rep, err := checker.Run(context.Background(), name, ix.History(),
		checker.Options{Level: lvl, Window: *window, Index: ix})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(rep.Explain())
	if !rep.OK {
		os.Exit(1)
	}
}

// streamVerify feeds an NDJSON or MTCB capture straight into the online
// checker: the codec is sniffed by content (gzip unwrapped first), the
// decoder runs at most a bounded read-ahead of transactions in front of
// the checker, and with a window the checker itself stays bounded too,
// so captures of any length verify in near-constant memory. The verdict
// line is the mtc-incremental engine's, epoch count included.
func streamVerify(path string, lvl core.Level, window int) {
	f, err := os.Open(path)
	if err != nil {
		fatalf("open: %v", err)
	}
	defer f.Close()
	sr, err := history.NewAutoStreamReader(f)
	if err != nil {
		fatalf("stream: %v", err)
	}
	r, err := core.CheckStreamCtx(context.Background(), sr, lvl, window, 0)
	if err != nil {
		fatalf("stream: %v", err) // codec/read error, not a verdict
	}
	fmt.Println(checker.ReportFromResult("mtc-incremental", r).Explain())
	if !r.OK {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mtc-verify: "+format+"\n", args...)
	os.Exit(2)
}
