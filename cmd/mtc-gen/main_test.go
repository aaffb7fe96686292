package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests run the real main(): a child process started
// with MTC_GEN_MAIN=1 is the CLI, exit code and all.
func TestMain(m *testing.M) {
	if os.Getenv("MTC_GEN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestWorkloadFlagsAreValidated: a bad -dist or an empty plan is a
// usage error (exit 2 naming the flag), never a generator panic.
func TestWorkloadFlagsAreValidated(t *testing.T) {
	for _, args := range [][]string{
		{"-dist", "foo"},
		{"-sessions", "0"},
		{"-txns", "0"},
		{"-objects", "0"},
		{"-kind", "gt", "-ops", "0"},
	} {
		cmd := exec.Command(os.Args[0], append(args, "-o", os.DevNull)...)
		cmd.Env = append(os.Environ(), "MTC_GEN_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 ||
			!strings.Contains(stderr.String(), "must be") || strings.Contains(stderr.String(), "panic") {
			t.Errorf("%v: %v, stderr %s", args, err, stderr.String())
		}
	}
}
