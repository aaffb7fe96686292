package main

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mtc/internal/history"
	"mtc/internal/mtcserve"
)

// TestMain lets the tests run the real main(): a child process started
// with MTC_CLIENT_MAIN=1 is the CLI, exit code and all.
func TestMain(m *testing.M) {
	if os.Getenv("MTC_CLIENT_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes the CLI against a fresh in-process mtc-serve and returns
// its exit code and output streams.
func run(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	ts := httptest.NewServer(mtcserve.Handler())
	defer ts.Close()
	cmd := exec.Command(os.Args[0], append([]string{"-server", ts.URL}, args...)...)
	cmd.Env = append(os.Environ(), "MTC_CLIENT_MAIN=1")
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

func saved(t *testing.T, h *history.History) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "h.json")
	if err := history.SaveFile(path, h); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestJobWindowReachesTheServer: -window is sent with a job, so an
// mtc-incremental job compacts its replay (the flag used to reach only
// -stream sessions).
func TestJobWindowReachesTheServer(t *testing.T) {
	path := saved(t, history.SerialHistory(400, "x", "y"))
	code, out, errs := run(t, "-history", path, "-checker", "mtc-incremental", "-level", "SI", "-window", "16")
	if code != 0 || !strings.Contains(out, "history satisfies SI") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out, errs)
	}
	if !regexp.MustCompile(`[1-9][0-9]* epochs compacted`).MatchString(out) {
		t.Fatalf("a windowed job compacted nothing: %q", out)
	}
}

// TestStreamPrintsTheReport: -stream prints the final report's verdict,
// exit 0 when clean and 1 on a violation.
func TestStreamPrintsTheReport(t *testing.T) {
	path := saved(t, history.SerialHistory(400, "x", "y"))
	code, out, errs := run(t, "-history", path, "-level", "SI", "-stream", "-window", "16")
	if code != 0 || !strings.Contains(out, "[mtc-incremental] history satisfies SI") ||
		!regexp.MustCompile(`compacted over [1-9][0-9]* epochs`).MatchString(out) {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out, errs)
	}

	// A lost update: both transactions read x from ⊥T and write it.
	b := history.NewBuilder("x")
	b.Txn(0, history.R("x", 0), history.W("x", 1))
	b.Txn(1, history.R("x", 0), history.W("x", 2))
	code, out, errs = run(t, "-history", saved(t, b.Build()), "-level", "SI", "-stream")
	if code != 1 || !strings.Contains(out, "[mtc-incremental] history VIOLATES SI") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out, errs)
	}
}
