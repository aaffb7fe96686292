package mtcserve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mtc/internal/api"
	"mtc/internal/checker"
	"mtc/internal/history"
)

// check submits h as a job (empty checker/level select the server's
// defaults), waits for it and returns the report.
func check(t *testing.T, ts *httptest.Server, checkerName, level string, h *history.History) checker.Report {
	t.Helper()
	resp, job := submitJob(t, ts, api.JobRequest{Checker: checkerName, Level: level, History: h})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s/%s: %d", checkerName, level, resp.StatusCode)
	}
	done := waitJob(t, ts, job.ID, 5*time.Second)
	if done.State != api.JobDone || done.Report == nil {
		t.Fatalf("job %s/%s: %+v", checkerName, level, done)
	}
	return *done.Report
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
}

func TestCheckValidHistory(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	h := history.SerialHistory(20, "x", "y")
	v := check(t, ts, "", "SER", h)
	if !v.OK || v.Level != "SER" {
		t.Fatalf("verdict: %+v", v)
	}
	if v.Txns != len(h.Txns) || v.Edges == 0 {
		t.Fatalf("stats: %+v", v)
	}
}

func TestCheckViolationReturnsCounterexample(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	f := history.FixtureByName("WriteSkew")
	v := check(t, ts, "", "SER", f.H)
	if v.OK || len(v.Cycle) == 0 || !strings.Contains(v.Detail, "RW") {
		t.Fatalf("want write-skew cycle, got %+v", v)
	}
	v = check(t, ts, "", "SI", f.H)
	if !v.OK {
		t.Fatalf("WriteSkew must pass SI: %+v", v)
	}
	v = check(t, ts, "", "SI", history.FixtureByName("LostUpdate").H)
	if v.OK || !strings.Contains(v.Detail, "DIVERGENCE") {
		t.Fatalf("want divergence detail, got %+v", v)
	}
}

func TestCheckBaselineCheckers(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	h := history.SerialHistory(10, "x")
	for _, tc := range []struct{ name, level string }{
		{"cobra", "SER"}, {"polysi", "SI"}, {"mtc-incremental", "SER"}, {"elle", "SER"},
	} {
		if v := check(t, ts, tc.name, tc.level, h); !v.OK || v.Checker != tc.name {
			t.Fatalf("%s verdict: %+v", tc.name, v)
		}
	}
	// Mismatched level/checker combos are rejected.
	resp, _ := submitJob(t, ts, api.JobRequest{Checker: "cobra", Level: "SI", History: h})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cobra on SI must 400, got %d", resp.StatusCode)
	}
}

func TestFixturesEndpoints(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/fixtures")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("fixtures: %v", err)
	}
	var names []string
	_ = json.NewDecoder(resp.Body).Decode(&names)
	resp.Body.Close()
	if len(names) != 16 {
		t.Fatalf("names = %v", names)
	}
	resp, err = http.Get(ts.URL + "/v1/fixtures/WriteSkew?level=SI")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatal("fixture lookup failed")
	}
	var v checker.Report
	_ = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if !v.OK {
		t.Fatalf("WriteSkew/SI verdict: %+v", v)
	}
	// A weak level runs the MTC engine like every other level: the same
	// verdict the profile checker's rung gives, without the profile fields.
	for lvl, wantOK := range map[string]bool{"rc": true, "ra": false} {
		resp, err = http.Get(ts.URL + "/v1/fixtures/FracturedRead?level=" + lvl)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("fixture at %s failed", lvl)
		}
		v = checker.Report{}
		_ = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if v.Checker != "mtc" || v.OK != wantOK || v.OK != (len(v.Anomalies) == 0) || v.StrongestLevel != "" || len(v.Rungs) != 0 {
			t.Fatalf("FracturedRead/%s verdict: %+v", lvl, v)
		}
	}
	resp, _ = http.Get(ts.URL + "/v1/fixtures/Nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fixture must 404, got %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(ts.URL + "/v1/fixtures/WriteSkew?level=NOPE")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad level must 400, got %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestDefaultLevelIsSI(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	if v := check(t, ts, "", "", history.SerialHistory(3)); v.Level != "SI" {
		t.Fatalf("default level = %q", v.Level)
	}
}

// TestUnversionedRoutesAreGone: the pre-v1 aliases were removed; only
// /v1 (and /healthz) answer.
func TestUnversionedRoutesAreGone(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	for _, tc := range []struct{ method, path string }{
		{"GET", "/checkers"}, {"POST", "/check"}, {"GET", "/fixtures"}, {"GET", "/fixtures/WriteSkew"},
		{"POST", "/sessions"}, {"POST", "/sessions/s1/txns"}, {"GET", "/sessions/s1/verdict"}, {"DELETE", "/sessions/s1"},
	} {
		if resp, _ := doJSON(t, tc.method, ts.URL+tc.path, "{}"); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// TestDoorsAgreeOnEngineAndLevelErrors: jobs, sessions and fixtures read
// engine and level through one Registry.Resolve, so the same mistake
// gets the same code at every door that can make it. A fixture's bad
// level used to answer bad_request. Fixtures run mtc, which lists every
// level, and sessions run mtc-incremental, so only jobs name an engine.
func TestDoorsAgreeOnEngineAndLevelErrors(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	for _, tc := range []struct {
		name, method, path, body string
		code, message            string
	}{
		{"job, unknown checker", "POST", "/v1/jobs", `{"checker":"bogus","level":"SI","history":{}}`, api.CodeUnknownChecker, "unknown checker"},
		{"job, unparseable level", "POST", "/v1/jobs", `{"level":"bogus","history":{}}`, api.CodeUnsupportedLevel, "unknown isolation level"},
		{"session, unparseable level", "POST", "/v1/sessions", `{"level":"bogus"}`, api.CodeUnsupportedLevel, "unknown isolation level"},
		{"fixture, unparseable level", "GET", "/v1/fixtures/WriteSkew?level=bogus", "", api.CodeUnsupportedLevel, "unknown isolation level"},
		{"job, level the engine lacks", "POST", "/v1/jobs", `{"checker":"cobra","level":"SI","history":{}}`, api.CodeUnsupportedLevel, "cobra does not support level"},
		{"session, level the engine lacks", "POST", "/v1/sessions", `{"level":"RC"}`, api.CodeUnsupportedLevel, "mtc-incremental does not support level"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := doJSON(t, tc.method, ts.URL+tc.path, tc.body)
			var e api.ErrorResponse
			if err := json.Unmarshal(raw, &e); err != nil || resp.StatusCode != http.StatusBadRequest ||
				e.Error.Code != tc.code || !strings.Contains(e.Error.Message, tc.message) {
				t.Fatalf("%d %s, want 400 %s with %q", resp.StatusCode, raw, tc.code, tc.message)
			}
		})
	}
}
