package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mtc/internal/history"
)

// TestMain lets the tests run the real main(): a child process started
// with MTC_VERIFY_MAIN=1 is the CLI, exit code and all.
func TestMain(m *testing.M) {
	if os.Getenv("MTC_VERIFY_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes the CLI and returns its exit code and output streams.
func run(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MTC_VERIFY_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return code, out.String(), errb.String()
}

func saved(t *testing.T, name string, h *history.History) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := history.SaveFile(path, h); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLevelsAndCheckersResolveThroughTheRegistry: levels parse in any
// case, every registry engine is selectable, and caller mistakes exit 2
// with the registry's message (-level ser used to panic).
func TestLevelsAndCheckersResolveThroughTheRegistry(t *testing.T) {
	clean := saved(t, "clean.mtcb", history.SerialHistory(30, "x", "y"))
	skew := saved(t, "skew.json", history.FixtureByName("WriteSkew").H)
	// T2 has a start but no finish: not a real-time interval under any
	// reading, so the file is refused before an SSER verdict can depend
	// on which reading the engine takes.
	b := history.NewBuilder("x")
	b.TimedTxn(0, 8, 9, history.R("x", 0), history.W("x", 1))
	b.TimedTxn(1, 7, 0, history.R("x", 1))
	halfStamped := saved(t, "half.json", b.Build())
	halfCapture := saved(t, "half.ndjson", b.Build())
	// T1's op is neither a read nor a write: the batch index ignored it
	// and read T2 as a thin-air read, MTCB kept one kind bit and passed.
	b = history.NewBuilder("x")
	b.Txn(0, history.Op{Kind: 3, Key: "x", Value: 7})
	b.Txn(1, history.R("x", 7))
	oddKind := saved(t, "odd.json", b.Build())
	oddCapture := saved(t, "odd.ndjson", b.Build())
	// A file no codec claims is refused, never checked as an empty
	// history.
	blank := filepath.Join(t.TempDir(), "blank.json")
	if err := os.WriteFile(blank, []byte("\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{"lower-case level, profile engine", []string{"-level", "ser", "-checker", "profile", clean}, 0, "[profile] history satisfies SER", ""},
		{"weak level routes to its checker", []string{"-level", "RC", clean}, 0, "[mtc] history satisfies RC", ""},
		{"incremental engine", []string{"-level", "SI", "-checker", "mtc-incremental", clean}, 0, "[mtc-incremental] history satisfies SI", ""},
		{"violation exits 1", []string{"-level", "SER", skew}, 1, "[mtc] history VIOLATES SER", ""},
		{"sser on a clean history", []string{"-level", "sser", clean}, 0, "[mtc] history satisfies SSER", ""},
		{"finish before start is not a history", []string{"-level", "sser", halfStamped}, 2, "", "finish 0 < start 7"},
		{"finish before start is not a capture", []string{"-level", "SER", "-stream", halfCapture}, 2, "", "finish 0 < start 7"},
		{"an op of kind 3 is not a history", []string{"-level", "SER", oddKind}, 2, "", "op 0 has kind 3"},
		{"an op of kind 3 is not a capture", []string{"-level", "SER", "-stream", oddCapture}, 2, "", "op 0 has kind 3"},
		{"blank file is not a history", []string{"-level", "SSER", blank}, 2, "", "unrecognized encoding"},
		{"blank file is not a capture", []string{"-level", "SER", "-stream", blank}, 2, "", "unrecognized encoding"},
		{"unknown level", []string{"-level", "bogus", clean}, 2, "", "unknown isolation level"},
		{"unknown checker", []string{"-checker", "mtc-sharded", clean}, 2, "", "unknown checker"},
		{"unsupported level for the engine", []string{"-level", "SI", "-checker", "cobra", clean}, 2, "", "does not support level"},
		{"stream refuses a level the online engine lacks", []string{"-level", "RC", "-stream", clean}, 2, "", "mtc-incremental does not support level"},
		{"stream refuses a baseline engine", []string{"-level", "SER", "-stream", "-checker", "cobra", clean}, 2, "", "cannot run -checker cobra"},
		{"stream refuses an unknown checker", []string{"-level", "SER", "-stream", "-checker", "bogus", clean}, 2, "", "cannot run -checker bogus"},
		{"negative window", []string{"-window", "-1", clean}, 2, "", "-window must be >= 0"},
		{"window on a batch engine", []string{"-level", "SI", "-window", "8", clean}, 2, "", "-window compacts the online checker; mtc"},
		{"window on a baseline", []string{"-level", "SER", "-checker", "cobra", "-window", "8", clean}, 2, "", "-window compacts the online checker; cobra"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := run(t, tc.args...)
			if code != tc.code || !strings.Contains(stdout, tc.stdout) || !strings.Contains(stderr, tc.stderr) {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, stdout, stderr)
			}
			if strings.Contains(stderr, "panic") {
				t.Fatalf("the CLI panicked:\n%s", stderr)
			}
		})
	}
}

// TestWindowReachesTheBatchReplay: -window without -stream used to be
// dropped, so mtc-incremental replayed unbounded whatever it said. The
// verdict line now reports the compaction epochs of a windowed run, and
// verdict and exit code are the unbounded run's.
func TestWindowReachesTheBatchReplay(t *testing.T) {
	clean := saved(t, "clean.mtcb", history.SerialHistory(400, "x", "y"))
	// The same chain ending in a lost update: two sessions both replace
	// x's last version.
	b := history.NewBuilder("x")
	v := history.Value(0)
	for i := 0; i < 400; i++ {
		b.Txn(0, history.R("x", v), history.W("x", history.Value(1000+i)))
		v = history.Value(1000 + i)
	}
	b.Txn(1, history.R("x", v), history.W("x", 5000))
	b.Txn(2, history.R("x", v), history.W("x", 5001))
	lost := saved(t, "lost.mtcb", b.Build())
	for _, tc := range []struct {
		path    string
		code    int
		verdict string
	}{
		{clean, 0, "[mtc-incremental] history satisfies SER"},
		{lost, 1, "[mtc-incremental] history VIOLATES SER"},
	} {
		for _, window := range []string{"0", "64"} {
			code, stdout, stderr := run(t, "-level", "SER", "-checker", "mtc-incremental", "-window", window, tc.path)
			if code != tc.code || !strings.Contains(stdout, tc.verdict) {
				t.Fatalf("-window %s: exit %d, want %d\nstdout: %s\nstderr: %s", window, code, tc.code, stdout, stderr)
			}
			if got := strings.Contains(stdout, "epochs compacted"); got != (window != "0") {
				t.Fatalf("-window %s: epochs compacted shown = %v\nstdout: %s", window, got, stdout)
			}
		}
	}
}

// TestStreamVerdictLineMatchesTheBatchReplay: -stream printed the bare
// core verdict, with neither the engine's tag nor the epoch count. It
// now prints the line the batch replay prints. The chain runs round
// robin over three sessions, so every session the capture declares keeps
// publishing and the staleness horizon lets a windowed stream compact.
func TestStreamVerdictLineMatchesTheBatchReplay(t *testing.T) {
	clean := saved(t, "clean.ndjson", history.SerialHistory(400, "x", "y"))
	b := history.NewBuilder("x")
	v := history.Value(0)
	for i := 0; i < 400; i++ {
		b.Txn(i%3, history.R("x", v), history.W("x", history.Value(1000+i)))
		v = history.Value(1000 + i)
	}
	b.Txn(1, history.R("x", v), history.W("x", 5000))
	b.Txn(2, history.R("x", v), history.W("x", 5001))
	lost := saved(t, "lost.mtcb", b.Build())
	for _, tc := range []struct {
		path    string
		code    int
		verdict string
	}{
		{clean, 0, "[mtc-incremental] history satisfies SER"},
		{lost, 1, "[mtc-incremental] history VIOLATES SER"},
	} {
		for _, window := range []string{"0", "64"} {
			code, stdout, stderr := run(t, "-level", "SER", "-stream", "-window", window, tc.path)
			if code != tc.code || !strings.Contains(stdout, tc.verdict) {
				t.Fatalf("%s -window %s: exit %d, want %d\nstdout: %s\nstderr: %s", tc.path, window, code, tc.code, stdout, stderr)
			}
			if got := strings.Contains(stdout, "epochs compacted"); got != (window != "0") {
				t.Fatalf("%s -window %s: epochs compacted shown = %v\nstdout: %s", tc.path, window, got, stdout)
			}
		}
	}
}
