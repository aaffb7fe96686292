// Command mtc-verify checks a saved history file against an isolation
// level using any registered checker (mtc -checkers lists them). The
// file's codec — JSON, text, NDJSON or MTCB, optionally gzipped — is
// sniffed from its content.
//
// Examples:
//
//	mtc-verify -level SI history.json
//	mtc-verify -level SER -checker cobra history.txt
//	mtc-verify -level ser -checker profile history.mtcb
//	mtc-verify -level SI -stream -window 1024 capture.ndjson.gz
//	mtc-verify -level SER -stream capture.mtcb
//	mtc-verify -level SER -checker mtc-incremental -window 1024 history.mtcb
//
// Exit status: 0 the history satisfies the level, 1 it violates it,
// 2 usage errors (unknown level or checker, unreadable file).
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
		stream = flag.Bool("stream", false, "verify an NDJSON or MTCB capture transaction-by-transaction without loading it (codec sniffed by content; mtc checker, SER or SI)")
		window = flag.Int("window", 0, "compact the online checker (-stream, or -checker mtc-incremental) to this window (0 = unbounded, always exact; with -stream, windowed verdicts are exact for captures recorded in ingestion order — for session-grouped files the window must exceed the capture's commit-to-record skew or stale reads report ThinAirRead)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mtc-verify [-level L] [-checker C] [-stream] [-window N] <history-file>")
		os.Exit(2)
	}
	lvl, err := checker.ParseLevel(*level)
	if err != nil {
		fatalf("%v", err)
	}

	if *stream {
		streamVerify(flag.Arg(0), lvl, *window)
		return
	}

	ix, err := history.LoadFileIndexed(flag.Arg(0))
	if err != nil {
		fatalf("load: %v", err)
	}
	rep, err := checker.Run(context.Background(), *engine, ix.History(),
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
// checker: the codec is sniffed by content (gzip unwrapped first), one
// transaction is held at a time, and with a window the checker itself
// stays bounded too, so captures of any length verify in near-constant
// memory.
func streamVerify(path string, lvl core.Level, window int) {
	if lvl != core.SER && lvl != core.SI {
		fatalf("-stream checks SER or SI")
	}
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
	fmt.Println(r.Explain())
	if !r.OK {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mtc-verify: "+format+"\n", args...)
	os.Exit(2)
}
