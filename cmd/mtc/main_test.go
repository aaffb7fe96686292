package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mtc/internal/checker"
	"mtc/internal/history"
)

// TestMain lets the tests run the real main(): a child process started
// with MTC_MAIN=1 is the CLI, exit code and all.
func TestMain(m *testing.M) {
	if os.Getenv("MTC_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes the CLI and returns its exit code and output streams.
func run(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MTC_MAIN=1")
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

// TestCheckersListsTheBaseEngines: sharding is the -shard option and a
// weak level is a level of mtc, so the registry listing has one name per
// engine.
func TestCheckersListsTheBaseEngines(t *testing.T) {
	code, stdout, _ := run(t, "-checkers")
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	want := "cobra elle mtc mtc-incremental polysi porcupine profile"
	if code != 0 || strings.Join(got, " ") != want {
		t.Fatalf("exit %d, listed %v, want %s", code, got, want)
	}
}

// TestShardFlagShardsTheNamedEngine: -shard N checks component-sharded
// under the engine's own name, and the retired twin name is unknown.
func TestShardFlagShardsTheNamedEngine(t *testing.T) {
	code, stdout, stderr := run(t, "-level", "SI", "-sessions", "8", "-txns", "10", "-tenants", "4", "-shard", "2", "-report", "json")
	var rep checker.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("exit %d: %v\nstdout: %s\nstderr: %s", code, err, stdout, stderr)
	}
	if code != 0 || !rep.OK || rep.Checker != "mtc" || rep.ShardComponents != 4 {
		t.Fatalf("exit %d, report %+v", code, rep)
	}
	code, _, stderr = run(t, "-checker", "mtc-sharded", "-sessions", "2", "-txns", "4")
	if code != 2 || !strings.Contains(stderr, "unknown checker") {
		t.Fatalf("mtc-sharded: exit %d, stderr %s", code, stderr)
	}
}

// TestStreamVerdictLineNamesTheEngine: the -stream verdict line is the
// report's, so it carries the engine tag and the epoch count that
// -report json carries. One session commits in a fixed order, so the
// two runs of the seed check the same stream.
func TestStreamVerdictLineNamesTheEngine(t *testing.T) {
	args := []string{"-level", "SER", "-stream", "-sessions", "1", "-txns", "300", "-window", "64"}
	code, text, stderr := run(t, args...)
	if code != 0 {
		t.Fatalf("text run: exit %d\nstdout: %s\nstderr: %s", code, text, stderr)
	}
	code, stdout, stderr := run(t, append(args, "-report", "json")...)
	var rep checker.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("exit %d: %v\nstdout: %s\nstderr: %s", code, err, stdout, stderr)
	}
	if code != 0 || !rep.OK || rep.Checker != "mtc-incremental" || rep.CompactedEpochs == 0 {
		t.Fatalf("json run: exit %d, report %+v", code, rep)
	}
	want := fmt.Sprintf("[mtc-incremental] history satisfies SER (%d txns", rep.Txns)
	epochs := fmt.Sprintf("%d epochs compacted)", rep.CompactedEpochs)
	if !strings.Contains(text, want) || !strings.Contains(text, epochs) {
		t.Fatalf("verdict line does not match the report (want %q ... %q):\n%s", want, epochs, text)
	}
}

// TestStreamRefusesLevelsTheOnlineEngineLacks: -stream runs
// mtc-incremental, so a level outside its registry row exits 2 with the
// registry's message. RC, RA and CAUSAL used to pass the CLI's own guard
// and panic in the engine.
func TestStreamRefusesLevelsTheOnlineEngineLacks(t *testing.T) {
	for _, lvl := range []string{"RC", "RA", "CAUSAL", "SSER"} {
		code, _, stderr := run(t, "-level", lvl, "-stream", "-sessions", "2", "-txns", "4")
		if code != 2 || !strings.Contains(stderr, "does not support level") || strings.Contains(stderr, "panic") {
			t.Errorf("-stream -level %s: exit %d, stderr %s", lvl, code, stderr)
		}
	}
}

// TestBatchRefusesEngineAndLevelBeforeTheRun: the batch path resolves
// engine and level through the registry before the workload runs, so a
// level the engine does not list exits 2 without running anything —
// no "history:" line, no file behind -out. -profile resolves as the
// profile engine.
func TestBatchRefusesEngineAndLevelBeforeTheRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "h.json")
	for _, args := range [][]string{
		{"-level", "SI", "-checker", "cobra"},
		{"-level", "SI", "-checker", "cobra", "-out", out},
		{"-checker", "bogus"},
		{"-level", "SI", "-checker", "cobra", "-report", "json"},
	} {
		args = append(args, "-sessions", "2", "-txns", "4")
		code, stdout, stderr := run(t, args...)
		if code != 2 || strings.Contains(stdout+stderr, "history:") || !strings.Contains(stderr, "checker") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", args, code, stdout, stderr)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("-out after a refused level: want no file, stat says %v", err)
	}
	if code, stdout, stderr := run(t, "-profile", "-level", "SI", "-sessions", "2", "-txns", "4"); code != 0 || !strings.Contains(stdout, "history:") {
		t.Fatalf("-profile -level SI: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestInertFlagsAreRefused: a flag the chosen pipeline would ignore
// exits 2 naming the flag before the workload runs, never a clean run
// that silently dropped it. -window compacts only the online engine,
// -shard decomposes only a batch check's history, and the VLLWT
// pipeline runs a fixed LWT workload.
func TestInertFlagsAreRefused(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-level", "SI", "-window", "64"}, "-window"},
		{[]string{"-level", "SER", "-checker", "cobra", "-window", "64"}, "-window"},
		{[]string{"-profile", "-window", "8"}, "-window"},
		{[]string{"-lwt", "-shard", "3", "-tenants", "2"}, "got -shard"},
		{[]string{"-lwt", "-tenants", "2"}, "got -tenants"},
		{[]string{"-lwt", "-window", "8"}, "got -window"},
		{[]string{"-lwt", "-objects", "9"}, "got -objects"},
		{[]string{"-lwt", "-dist", "zipf"}, "got -dist"},
		{[]string{"-lwt", "-retries", "0"}, "got -retries"},
		{[]string{"-lwt", "-timeout", "1s"}, "got -timeout"},
		{[]string{"-stream", "-tenants", "4", "-shard", "2"}, "-shard"},
	} {
		args := append(tc.args, "-sessions", "2", "-txns", "4")
		code, stdout, stderr := run(t, args...)
		if code != 2 || strings.Contains(stdout+stderr, "history:") || !strings.Contains(stderr, tc.flag) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", args, code, stdout, stderr)
		}
	}
}

// TestStreamTenantsVerifyThroughOneChecker: a multi-tenant live run is
// one online check, so its report counts the transactions a batch check
// of the saved history counts — one ⊥T, not one per tenant.
func TestStreamTenantsVerifyThroughOneChecker(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.json")
	code, stdout, stderr := run(t, "-level", "SI", "-stream", "-tenants", "4", "-sessions", "8", "-txns", "20", "-report", "json", "-out", path)
	var rep checker.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("exit %d: %v\nstdout: %s\nstderr: %s", code, err, stdout, stderr)
	}
	if code != 0 || !rep.OK || rep.ShardComponents != 0 {
		t.Fatalf("exit %d, report %+v", code, rep)
	}
	h, err := history.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := checker.Run(context.Background(), "mtc", h, checker.Options{Level: "SI"})
	if err != nil {
		t.Fatal(err)
	}
	if !batch.OK || batch.Txns != rep.Txns {
		t.Fatalf("online %d txns, batch %d (batch OK %v)", rep.Txns, batch.Txns, batch.OK)
	}
}

// TestLWTRefusesOut: the -lwt pipeline saves no history, so asking it
// for one is a usage error, not a silent success that writes no file.
func TestLWTRefusesOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.json")
	code, _, stderr := run(t, "-lwt", "-sessions", "2", "-txns", "5", "-out", path)
	if code != 2 || !strings.Contains(stderr, "-out") {
		t.Fatalf("exit %d, stderr %s", code, stderr)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("-lwt -out: want no file, stat says %v", err)
	}
}

// TestWorkloadFlagsAreValidated: a bad -dist or an empty plan is a
// usage error (exit 2 naming the flag), never a generator panic.
func TestWorkloadFlagsAreValidated(t *testing.T) {
	for flag, want := range map[string]string{
		"-dist=foo":   "-dist must be one of [uniform zipf hotspot exp]",
		"-sessions=0": "must be > 0",
		"-txns=0":     "must be > 0",
		"-objects=0":  "must be > 0",
	} {
		code, _, stderr := run(t, flag)
		if code != 2 || !strings.Contains(stderr, want) || strings.Contains(stderr, "panic") {
			t.Errorf("%s: exit %d, stderr %s", flag, code, stderr)
		}
	}
}
