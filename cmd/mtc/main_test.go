package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"mtc/internal/checker"
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
