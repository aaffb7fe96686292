package mtcserve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mtc/internal/api"
	"mtc/internal/checker"
	"mtc/internal/history"
)

// submitJob posts a JobRequest and decodes the response.
func submitJob(t *testing.T, ts *httptest.Server, req api.JobRequest) (*http.Response, api.Job) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job api.Job
	_ = json.NewDecoder(resp.Body).Decode(&job)
	return resp, job
}

// getJob polls one job.
func getJob(t *testing.T, ts *httptest.Server, id string) (*http.Response, api.Job) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job api.Job
	_ = json.NewDecoder(resp.Body).Decode(&job)
	return resp, job
}

// waitJob polls until the job is terminal or the deadline passes.
func waitJob(t *testing.T, ts *httptest.Server, id string, within time.Duration) api.Job {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		resp, job := getJob(t, ts, id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: %d", id, resp.StatusCode)
		}
		if api.JobTerminal(job.State) {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, job.State, within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// slowJobHistory triggers a multi-second Cobra/PolySI run.
func slowJobHistory() *history.History {
	return history.BlindWriteHistory(4, 200)
}

// TestJobLifecycle drives submit -> poll -> done with a structured
// report, for both a clean and a violating history.
func TestJobLifecycle(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()

	resp, job := submitJob(t, ts, api.JobRequest{Level: "SER", History: history.SerialHistory(20, "x", "y")})
	if resp.StatusCode != http.StatusAccepted || job.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, job)
	}
	done := waitJob(t, ts, job.ID, 5*time.Second)
	if done.State != api.JobDone || done.Report == nil || !done.Report.OK {
		t.Fatalf("clean history job: %+v", done)
	}
	if done.Report.Checker != "mtc" || done.Report.Txns != 21 {
		t.Fatalf("report: %+v", done.Report)
	}
	if done.StartedAt == nil || done.FinishedAt == nil {
		t.Fatalf("timestamps missing: %+v", done)
	}

	// A violating history carries the structured cycle on the wire.
	_, job = submitJob(t, ts, api.JobRequest{Level: "SER", History: history.FixtureByName("WriteSkew").H})
	done = waitJob(t, ts, job.ID, 5*time.Second)
	if done.State != api.JobDone || done.Report == nil || done.Report.OK {
		t.Fatalf("write-skew job: %+v", done)
	}
	if len(done.Report.Cycle) == 0 {
		t.Fatalf("cycle not serialized: %+v", done.Report)
	}
}

// TestJobValidation covers the submit-time error envelope.
// TestProfileAndWeakLevelJobs drives the lattice checkers through the
// job API: a profile job must report the strongest level with per-rung
// and guarantee verdicts, and a weak level with no checker named (what
// `mtc-client -level RC` sends) must run on the default engine.
func TestProfileAndWeakLevelJobs(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()

	f := history.FixtureByName("FracturedRead")
	resp, job := submitJob(t, ts, api.JobRequest{Checker: "profile", History: f.H})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit profile: %d", resp.StatusCode)
	}
	job = waitJob(t, ts, job.ID, 5*time.Second)
	if job.State != api.JobDone || job.Report == nil {
		t.Fatalf("profile job: %+v", job)
	}
	if job.Report.StrongestLevel != "RC" {
		t.Fatalf("strongest = %s, want RC", job.Report.StrongestLevel)
	}
	if len(job.Report.Rungs) != 6 || len(job.Report.Guarantees) != 4 {
		t.Fatalf("profile shape: %d rungs, %d guarantees", len(job.Report.Rungs), len(job.Report.Guarantees))
	}

	for lvl, wantOK := range map[string]bool{"RC": true, "RA": false, "CAUSAL": false} {
		resp, job := submitJob(t, ts, api.JobRequest{Level: lvl, History: f.H})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit at %s: %d", lvl, resp.StatusCode)
		}
		job = waitJob(t, ts, job.ID, 5*time.Second)
		if job.State != api.JobDone || job.Report == nil || job.Report.OK != wantOK ||
			job.Report.Checker != "mtc" || string(job.Report.Level) != lvl {
			t.Fatalf("%s job on FracturedRead: %+v", lvl, job)
		}
	}

	// A weak level on an engine that does not support it must 400.
	resp, _ = submitJob(t, ts, api.JobRequest{Checker: "cobra", Level: "RC", History: f.H})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cobra at RC: %d, want 400", resp.StatusCode)
	}
}

// TestRetiredSkipPreCheckIsIgnored: the job body no longer carries a
// pre-check switch. A client that still sends it is accepted like any
// unknown field, and the history is validated all the same — a remote
// caller cannot turn the pre-check off and collect a false OK.
func TestRetiredSkipPreCheckIsIgnored(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	h, err := json.Marshal(history.FixtureByName("ThinAirRead").H)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"level":"SI","skip_precheck":true,"history":`+string(h)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job api.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d, %v", resp.StatusCode, err)
	}
	done := waitJob(t, ts, job.ID, 5*time.Second)
	if done.State != api.JobDone || done.Report == nil || done.Report.OK || len(done.Report.Anomalies) == 0 {
		t.Fatalf("the pre-check must still reject a thin-air read: %+v", done)
	}
}

func TestJobValidation(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	h, err := json.Marshal(history.SerialHistory(3, "x"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		body    string
		status  int
		code    string
		wantMsg string // a substring the error message must carry, if set
	}{
		{"malformed body", "{bogus", http.StatusBadRequest, api.CodeBadRequest, ""},
		{"unknown checker", `{"checker":"bogus","history":{}}`, http.StatusBadRequest, api.CodeUnknownChecker, ""},
		{"bad level", `{"level":"NOPE","history":{}}`, http.StatusBadRequest, api.CodeUnsupportedLevel, ""},
		{"mismatched level", `{"checker":"cobra","level":"SI","history":{}}`, http.StatusBadRequest, api.CodeUnsupportedLevel, ""},
		{"missing history", `{"level":"SER"}`, http.StatusBadRequest, api.CodeInvalidHistory, ""},
		// A start without a finish: once read as untimed by one real-time
		// predicate and as an interval ending at 0 by the other. The retired
		// sparse_rt knob, which picked between them, is ignored.
		{"finish before start", `{"level":"SSER","sparse_rt":true,"history":{"has_init":true,"sessions":[[1],[2]],"txns":[
			{"id":0,"sess":-1,"committed":true,"ops":[{"k":1,"key":"x","v":0}]},
			{"id":1,"sess":0,"start":8,"finish":9,"committed":true,"ops":[{"k":0,"key":"x","v":0},{"k":1,"key":"x","v":1}]},
			{"id":2,"sess":1,"start":7,"finish":0,"committed":true,"ops":[{"k":0,"key":"x","v":1}]}]}}`,
			http.StatusBadRequest, api.CodeInvalidHistory, ""},
		// Session 0 listed as [T2, T1]: the list order and the id order
		// used to give different SER verdicts in different engines.
		{"session out of id order", `{"level":"SER","history":{"has_init":true,"sessions":[[2,1],[3]],"txns":[
			{"id":0,"sess":-1,"committed":true,"ops":[{"k":1,"key":"x","v":0},{"k":1,"key":"y","v":0}]},
			{"id":1,"sess":0,"committed":true,"ops":[{"k":0,"key":"x","v":0},{"k":1,"key":"x","v":1}]},
			{"id":2,"sess":0,"committed":true,"ops":[{"k":0,"key":"x","v":1},{"k":1,"key":"x","v":2}]},
			{"id":3,"sess":1,"committed":true,"ops":[{"k":0,"key":"y","v":0},{"k":1,"key":"y","v":1}]}]}}`,
			http.StatusBadRequest, api.CodeInvalidHistory, ""},
		// T1's op is neither a read nor a write. The index ignored it, so
		// T2's read of its value was a thin-air read locally, while the
		// MTCB a worker receives keeps one kind bit and checked OK.
		{"op neither read nor write", `{"level":"SER","history":{"has_init":true,"sessions":[[1],[2]],"txns":[
			{"id":0,"sess":-1,"committed":true,"ops":[{"k":1,"key":"x","v":0}]},
			{"id":1,"sess":0,"committed":true,"ops":[{"k":3,"key":"x","v":7}]},
			{"id":2,"sess":1,"committed":true,"ops":[{"k":0,"key":"x","v":7}]}]}}`,
			http.StatusBadRequest, api.CodeInvalidHistory, "kind 3"},
		// The retired parallelism field: any non-zero value is refused
		// with a message that names it, on a history that would pass. The
		// negative and oversized values the old clamp refused still answer
		// 400, now with the same message.
		{"retired parallelism", `{"level":"SER","parallelism":2,"history":` + string(h) + `}`, http.StatusBadRequest, api.CodeBadRequest, "parallelism"},
		{"negative parallelism", `{"level":"SER","parallelism":-2,"history":` + string(h) + `}`, http.StatusBadRequest, api.CodeBadRequest, "parallelism"},
		{"parallelism beyond clamp", `{"level":"SER","parallelism":1048576,"history":` + string(h) + `}`, http.StatusBadRequest, api.CodeBadRequest, "parallelism"},
		{"negative shard", `{"level":"SER","shard":-1,"history":{}}`, http.StatusBadRequest, api.CodeBadRequest, ""},
		{"shard beyond clamp", `{"level":"SER","shard":1048576,"history":{}}`, http.StatusBadRequest, api.CodeBadRequest, ""},
		{"negative window", `{"level":"SER","window":-1,"history":` + string(h) + `}`, http.StatusBadRequest, api.CodeBadRequest, "window"},
		{"negative timeout_ms", `{"level":"SER","timeout_ms":-5,"history":` + string(h) + `}`, http.StatusBadRequest, api.CodeBadRequest, "timeout_ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var env api.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status || env.Error.Code != tc.code {
				t.Fatalf("got %d/%s (%s), want %d/%s", resp.StatusCode, env.Error.Code, env.Error.Message, tc.status, tc.code)
			}
			if env.RequestID == "" {
				t.Fatal("error envelope must echo the request id")
			}
			if !strings.Contains(env.Error.Message, tc.wantMsg) {
				t.Fatalf("message %q does not carry %q", env.Error.Message, tc.wantMsg)
			}
		})
	}
}

// TestJobQueueFullReturns429 fills a one-deep queue behind a one-worker
// pool and asserts the overflow answer is 429 with Retry-After.
func TestJobQueueFullReturns429(t *testing.T) {
	srv := NewServer(nil)
	srv.Workers = 1
	srv.QueueDepth = 1
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	slow := slowJobHistory()
	// First job occupies the worker, second fills the queue. The worker
	// may dequeue the second before the third submit lands, so keep
	// submitting until the queue is genuinely full.
	var resp *http.Response
	var accepted []string
	for i := 0; i < 8; i++ {
		var job api.Job
		resp, job = submitJob(t, ts, api.JobRequest{Checker: "cobra", Level: "SER", TimeoutMillis: 30000, History: slow})
		if resp.StatusCode == http.StatusTooManyRequests {
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		accepted = append(accepted, job.ID)
	}
	// Cancel the slow jobs so their workers stop burning CPU once the
	// assertion is made.
	defer func() {
		for _, id := range accepted {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
	}()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue overflow must 429, got %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
}

// TestJobDeleteStopsWorker deletes a running SAT-backed job and asserts
// its worker is freed promptly: the job transitions to canceled and the
// single worker completes a subsequent quick job long before the big
// job's natural runtime.
func TestJobDeleteStopsWorker(t *testing.T) {
	srv := NewServer(nil)
	srv.Workers = 1
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, job := submitJob(t, ts, api.JobRequest{Checker: "cobra", Level: "SER", TimeoutMillis: 60000, History: slowJobHistory()})
	// Wait until the worker has actually started it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, j := getJob(t, ts, job.ID)
		if j.State == api.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", j)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Keep a handle on the internal job to observe its terminal state
	// after the route forgets it.
	internal := srv.lookupJob(job.ID)
	if internal == nil {
		t.Fatal("job not tracked")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	if resp, _ := getJob(t, ts, job.ID); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted job must 404, got %d", resp.StatusCode)
	}

	// The freed worker must pick up and finish a quick job promptly —
	// far sooner than the canceled job's multi-second natural runtime.
	start := time.Now()
	_, quick := submitJob(t, ts, api.JobRequest{Level: "SI", History: history.SerialHistory(5, "x")})
	done := waitJob(t, ts, quick.ID, 3*time.Second)
	if done.State != api.JobDone {
		t.Fatalf("quick job after delete: %+v", done)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("worker not freed promptly (%v)", elapsed)
	}
	if state := internal.status().State; state != api.JobCanceled {
		t.Fatalf("deleted job state = %s, want canceled", state)
	}
}

// TestJobTimeoutFails submits a SAT-backed job with a timeout far below
// its runtime and asserts the job fails with a timeout error instead of
// running to completion.
func TestJobTimeoutFails(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	start := time.Now()
	_, job := submitJob(t, ts, api.JobRequest{Checker: "cobra", Level: "SER", TimeoutMillis: 50, History: slowJobHistory()})
	done := waitJob(t, ts, job.ID, 5*time.Second)
	if done.State != api.JobFailed || !strings.Contains(done.Error, "timed out") {
		t.Fatalf("want timeout failure, got %+v", done)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("timed-out job held its worker for %v", elapsed)
	}
}

// TestJobEventsStream follows the NDJSON stream through to the terminal
// event.
func TestJobEventsStream(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	_, job := submitJob(t, ts, api.JobRequest{Level: "SER", History: history.SerialHistory(10, "x")})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var states []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev api.JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event %q: %v", sc.Text(), err)
		}
		if ev.JobID != job.ID {
			t.Fatalf("event for wrong job: %+v", ev)
		}
		states = append(states, ev.State)
		if api.JobTerminal(ev.State) {
			if ev.State != api.JobDone || ev.Report == nil || !ev.Report.OK {
				t.Fatalf("terminal event: %+v", ev)
			}
			break
		}
	}
	if len(states) == 0 || states[0] != api.JobQueued || states[len(states)-1] != api.JobDone {
		t.Fatalf("states = %v", states)
	}
}

// heldChecker runs its engine once hold returns; entered counts the
// calls.
type heldChecker struct {
	checker.Checker
	hold    func(ctx context.Context) error
	entered atomic.Int32
}

func (c *heldChecker) Check(ctx context.Context, h *history.History, opts checker.Options) (checker.Report, error) {
	c.entered.Add(1)
	if err := c.hold(ctx); err != nil {
		return checker.Report{}, err
	}
	return c.Checker.Check(ctx, h, opts)
}

// gatedServer serves a one-worker pool whose "mtc" waits for open: the
// first job submitted holds the worker, so later ones stay queued.
func gatedServer(t *testing.T) (srv *Server, ts *httptest.Server, held *heldChecker, open func()) {
	t.Helper()
	eng, err := checker.Lookup("mtc")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var once sync.Once
	held = &heldChecker{Checker: eng, hold: func(ctx context.Context) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}}
	reg := &checker.Registry{}
	reg.Register(held)
	srv = NewServer(reg)
	srv.Workers = 1
	ts = httptest.NewServer(srv.Handler())
	open = func() { once.Do(func() { close(release) }) }
	t.Cleanup(func() {
		open()
		ts.Close()
		srv.Close()
	})
	return srv, ts, held, open
}

// followJob reads a job's event stream to its end.
func followJob(hc *http.Client, url string, attached chan<- struct{}) ([]api.JobEvent, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var evs []api.JobEvent
	dec := json.NewDecoder(resp.Body)
	for {
		var ev api.JobEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return evs, nil
		} else if err != nil {
			return evs, err
		}
		if evs = append(evs, ev); len(evs) == 1 && attached != nil {
			attached <- struct{}{}
		}
	}
}

// checkLog holds one follower's events to the job's whole log: seq 0,
// 1, 2 once each, ending done with a clean report.
func checkLog(id string, evs []api.JobEvent) error {
	want := []string{api.JobQueued, api.JobRunning, api.JobDone}
	if len(evs) != len(want) {
		return fmt.Errorf("read %d events, want %d: %+v", len(evs), len(want), evs)
	}
	for i, ev := range evs {
		if ev.JobID != id || ev.Seq != i || ev.State != want[i] {
			return fmt.Errorf("event %d is %+v, want seq %d %s of %s", i, ev, i, want[i], id)
		}
	}
	if rep := evs[2].Report; rep == nil || !rep.OK {
		return fmt.Errorf("done event carries report %+v", rep)
	}
	return nil
}

// TestJobFollowersReadTheLog: every follower of a job reads every event
// of its log once, in seq order from 0, however many follow it; one that
// attaches after the job is terminal gets the full replay, and its
// stream closes.
func TestJobFollowersReadTheLog(t *testing.T) {
	_, ts, held, open := gatedServer(t)
	_, first := submitJob(t, ts, api.JobRequest{Level: "SI", History: history.SerialHistory(5, "x")})
	for held.entered.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	_, job := submitJob(t, ts, api.JobRequest{Level: "SI", History: history.SerialHistory(5, "y")})
	if job.State != api.JobQueued {
		t.Fatalf("second job is %s behind a held worker", job.State)
	}

	const followers = 32
	hc := &http.Client{Timeout: 10 * time.Second}
	url := ts.URL + "/v1/jobs/" + job.ID + "/events"
	attached := make(chan struct{}, followers)
	logs := make([][]api.JobEvent, followers)
	errs := make([]error, followers)
	var wg sync.WaitGroup
	for i := range followers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[i], errs[i] = followJob(hc, url, attached)
		}()
	}
	for range followers {
		<-attached
	}
	open()
	wg.Wait()
	for i := range followers {
		if errs[i] != nil {
			t.Fatalf("follower %d: %v", i, errs[i])
		}
		if err := checkLog(job.ID, logs[i]); err != nil {
			t.Fatalf("follower %d: %v", i, err)
		}
	}
	if done := waitJob(t, ts, first.ID, 5*time.Second); done.State != api.JobDone {
		t.Fatalf("first job: %+v", done)
	}

	late, err := followJob(hc, url, nil)
	if err != nil {
		t.Fatalf("late follower: %v", err)
	}
	if err := checkLog(job.ID, late); err != nil {
		t.Fatalf("late follower: %v", err)
	}
}

// lineWriter is a ResponseWriter handing each write, one NDJSON event,
// to lines.
type lineWriter struct {
	header http.Header
	lines  chan string
}

func (w *lineWriter) Header() http.Header { return w.header }
func (w *lineWriter) WriteHeader(int)     {}
func (w *lineWriter) Write(p []byte) (int, error) {
	w.lines <- string(p)
	return len(p), nil
}

// TestJobFollowerDisconnect: a follower whose client goes away while the
// job runs returns at once and leaves no goroutine behind.
func TestJobFollowerDisconnect(t *testing.T) {
	srv, ts, held, _ := gatedServer(t)
	_, job := submitJob(t, ts, api.JobRequest{Level: "SI", History: history.SerialHistory(5, "x")})
	for held.entered.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID+"/events", nil).WithContext(ctx)
	r.SetPathValue("id", job.ID)
	w := &lineWriter{header: http.Header{}, lines: make(chan string, 3)} // a job logs at most three events
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		srv.handleJobEvents(w, r)
	}()
	for _, want := range []string{api.JobQueued, api.JobRunning} {
		var ev api.JobEvent
		if err := json.Unmarshal([]byte(<-w.lines), &ev); err != nil || ev.State != want {
			t.Fatalf("replayed %+v (%v), want %s", ev, err, want)
		}
	}
	cancel()
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("follower still attached after its client went away")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the follower returned, %d before it attached", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobList returns the submitted jobs in id order.
func TestJobList(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		_, job := submitJob(t, ts, api.JobRequest{Level: "SI", History: history.SerialHistory(3, "x")})
		ids = append(ids, job.ID)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list api.JobList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != len(ids) {
		t.Fatalf("listed %d jobs, want %d", len(list.Jobs), len(ids))
	}
	for i, j := range list.Jobs {
		if j.ID != ids[i] {
			t.Fatalf("order: %v", list.Jobs)
		}
	}
}

// TestUnsupportedHistoryJobFails routes Porcupine's shape error into the
// job error, not a hung or OK job.
func TestUnsupportedHistoryJobFails(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	b := history.NewBuilder("x", "y")
	b.Txn(0, history.R("x", 0), history.W("x", 1), history.R("y", 0), history.W("y", 2))
	_, job := submitJob(t, ts, api.JobRequest{Checker: "porcupine", History: b.Build()})
	done := waitJob(t, ts, job.ID, 5*time.Second)
	if done.State != api.JobFailed || !strings.Contains(done.Error, "cannot process") {
		t.Fatalf("want unsupported-history failure, got %+v", done)
	}
}

// TestRequestIDMiddleware covers both generated and client-supplied ids.
func TestRequestIDMiddleware(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("missing generated X-Request-Id")
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "req-mine")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "req-mine" {
		t.Fatalf("client request id not echoed: %q", got)
	}
}

// TestBodySizeLimit rejects oversized request bodies.
func TestBodySizeLimit(t *testing.T) {
	srv := NewServer(nil)
	srv.MaxBodyBytes = 512
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	big := strings.NewReader(`{"history":{"txns":[` + strings.Repeat(`{},`, 400) + `{}]}}`)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge && resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: %d", resp.StatusCode)
	}
}

// TestJobEviction bounds the retained job table: once MaxJobs is
// reached, submitting evicts the oldest terminal job, whose report then
// answers 404.
func TestJobEviction(t *testing.T) {
	srv := NewServer(nil)
	srv.MaxJobs = 2
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	h := history.SerialHistory(3, "x")
	var ids []string
	for i := 0; i < 2; i++ {
		_, job := submitJob(t, ts, api.JobRequest{Level: "SI", History: h})
		waitJob(t, ts, job.ID, 5*time.Second)
		ids = append(ids, job.ID)
	}
	_, third := submitJob(t, ts, api.JobRequest{Level: "SI", History: h})
	waitJob(t, ts, third.ID, 5*time.Second)
	if resp, _ := getJob(t, ts, ids[0]); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("oldest terminal job must be evicted, got %d", resp.StatusCode)
	}
	if resp, _ := getJob(t, ts, ids[1]); resp.StatusCode != http.StatusOK {
		t.Fatalf("younger job must survive eviction, got %d", resp.StatusCode)
	}
}

// TestTerminalJobReleasesHistory asserts a finished job no longer pins
// its submitted history.
func TestTerminalJobReleasesHistory(t *testing.T) {
	srv := NewServer(nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, job := submitJob(t, ts, api.JobRequest{Level: "SI", History: history.SerialHistory(5, "x")})
	done := waitJob(t, ts, job.ID, 5*time.Second)
	if done.Txns != 6 {
		t.Fatalf("txns stat must survive release: %+v", done)
	}
	internal := srv.lookupJob(job.ID)
	internal.mu.Lock()
	held := internal.run != nil
	internal.mu.Unlock()
	if held {
		t.Fatal("terminal job still pins its history")
	}
}

// TestJobNumForeignIDs: ids that are not "j<n>" — a WAL can hand the
// server any string — number as 0 instead of panicking the sort.
func TestJobNumForeignIDs(t *testing.T) {
	for id, want := range map[string]int{"j12": 12, "": 0, "j": 0, "x7": 0, "12": 12} {
		if got := jobNum(id); got != want {
			t.Errorf("jobNum(%q) = %d, want %d", id, got, want)
		}
	}
}

// TestJobTrailingDataIs400: the request object is the whole body. The
// handler used to stop reading at the first value's closing brace, so
// "{job A}{job B}" silently ran job A.
func TestJobTrailingDataIs400(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	h, err := json.Marshal(history.SerialHistory(3, "x"))
	if err != nil {
		t.Fatal(err)
	}
	spellings := map[string]string{
		"compact": `{"level":"SER","history":` + string(h) + `}`,
		"spelled": `{ "level": "SER", "history": ` + string(h) + ` }`,
	}
	for name, job := range spellings {
		for _, tail := range []string{job, "x", "]", " null"} {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(job+tail))
			if err != nil {
				t.Fatal(err)
			}
			var env api.ErrorResponse
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusBadRequest || env.Error.Code != api.CodeBadRequest ||
				!strings.Contains(env.Error.Message, "after top-level value") {
				t.Errorf("%s job followed by %.10q: %d %+v (%v)", name, tail, resp.StatusCode, env.Error, err)
			}
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(job+" \r\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Errorf("%s job followed by whitespace: %d", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list api.JobList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil || len(list.Jobs) != len(spellings) {
		t.Fatalf("%d jobs exist (%v), want only the %d followed by whitespace", len(list.Jobs), err, len(spellings))
	}
}

// TestJobSubmitBuffersBodyOnce: the handler holds a body in one buffer
// sized by Content-Length and decodes it through api.DecodeJobRequest
// (about one body length more, TestJobBodyAllocations there) — not in a
// buffer doubled up to it (5x the body on its own) under a decoder that
// walks it three times. The request names no known level, so what is
// measured ends where validation would begin.
func TestJobSubmitBuffersBodyOnce(t *testing.T) {
	keys := make([]history.Key, 500)
	for i := range keys {
		keys[i] = history.Key("acct" + strconv.Itoa(i))
	}
	b := history.NewBuilder(keys...)
	for j := 0; j < 20_000; j++ {
		b.Txn(j%8, history.R(keys[j%len(keys)], history.Value(j/len(keys))), history.W(keys[j%len(keys)], history.Value(j/len(keys)+1)))
	}
	body, err := json.Marshal(api.JobRequest{Level: "NOPE", History: b.Build()})
	if err != nil {
		t.Fatal(err)
	}
	handler := Handler()
	post := func() int {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		return rec.Code
	}
	if code := post(); code != http.StatusBadRequest {
		t.Fatalf("warm-up: %d", code)
	}
	// TotalAlloc is the process's: the least of three posts is the one an
	// earlier test's still-running job disturbed least.
	got := math.Inf(1)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		code := post()
		runtime.ReadMemStats(&after)
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
		got = min(got, float64(after.TotalAlloc-before.TotalAlloc)/float64(len(body)))
	}
	t.Logf("a %d-byte body costs the handler %.2fx its length", len(body), got)
	if got > 2.5 {
		t.Fatalf("%.2fx the body allocated; want at most 2.5x (one buffer, one decode)", got)
	}
}

// TestJobSubmitDoesNotTrustContentLength: the header sizes the buffer
// only up to jobBodyHint, so a client that declares the largest body the
// server takes and sends next to nothing pins a few MiB, not all of it.
func TestJobSubmitDoesNotTrustContentLength(t *testing.T) {
	handler := Handler()
	post := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"level":"NOPE"`))
		req.ContentLength = DefaultMaxBodyBytes
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		return rec.Code
	}
	post()
	got := math.Inf(1)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		code := post()
		runtime.ReadMemStats(&after)
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
		got = min(got, float64(after.TotalAlloc-before.TotalAlloc))
	}
	if got > 1.5*jobBodyHint {
		t.Fatalf("%.0f bytes allocated on a Content-Length of %d and a 15-byte body; want about jobBodyHint (%d)", got, DefaultMaxBodyBytes, jobBodyHint)
	}
}
