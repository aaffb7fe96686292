package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mtc/internal/history"
	"mtc/internal/mtcserve"
	"mtc/pkg/client"
	"mtc/pkg/mtc"
)

// newServer spins up the real v1 handler for the SDK to talk to.
func newServer(t *testing.T) (*httptest.Server, *client.Client) {
	t.Helper()
	ts := httptest.NewServer(mtcserve.Handler())
	t.Cleanup(ts.Close)
	return ts, client.New(ts.URL)
}

// TestJobRoundTrip is the acceptance path: submit a job through the SDK,
// wait for the verdict, and read the structured report.
func TestJobRoundTrip(t *testing.T) {
	_, c := newServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := c.Healthy(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	// Exactly the seven base engines; sharding is an option, not a name.
	infos, err := c.Checkers(ctx)
	if err != nil || len(infos) != 7 {
		t.Fatalf("checkers: %v %v", infos, err)
	}

	job, err := c.SubmitJob(ctx, client.JobRequest{Level: "SER", History: history.SerialHistory(25, "x", "y")})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if job.State != client.JobQueued && job.State != client.JobRunning && job.State != client.JobDone {
		t.Fatalf("submitted state: %+v", job)
	}
	job, err = c.WaitJob(ctx, job.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if job.State != client.JobDone || job.Report == nil || !job.Report.OK || job.Report.Checker != "mtc" {
		t.Fatalf("verdict: %+v", job)
	}

	// The violating fixture round-trips its structured counterexample.
	rep, err := c.Check(ctx, client.JobRequest{Level: "SER", History: history.FixtureByName("WriteSkew").H})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if rep.OK || len(rep.Cycle) == 0 {
		t.Fatalf("write-skew report: %+v", rep)
	}
}

// TestStreamEvents follows the NDJSON stream through the SDK.
func TestStreamEvents(t *testing.T) {
	_, c := newServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	job, err := c.SubmitJob(ctx, client.JobRequest{Level: "SI", History: history.SerialHistory(10, "x")})
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	err = c.StreamEvents(ctx, job.ID, func(ev client.JobEvent) error {
		states = append(states, ev.State)
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v (states %v)", err, states)
	}
	if len(states) == 0 || states[0] != client.JobQueued || states[len(states)-1] != client.JobDone {
		t.Fatalf("states = %v", states)
	}
}

// TestWaitJobFollowsEvents: a wait is one event-stream request and one
// read of the job document, however long the job runs.
func TestWaitJobFollowsEvents(t *testing.T) {
	var mu sync.Mutex
	hits := map[string]int{}
	h := mtcserve.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits[r.Method+" "+r.URL.Path]++
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	job, err := c.SubmitJob(ctx, client.JobRequest{Checker: "cobra", Level: "SER", History: history.SerialHistory(200, "x", "y")})
	if err != nil {
		t.Fatal(err)
	}
	if job, err = c.WaitJob(ctx, job.ID); err != nil || job.State != client.JobDone || !job.Report.OK {
		t.Fatalf("wait: %+v %v", job, err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := map[string]int{"POST /v1/jobs": 1, "GET /v1/jobs/" + job.ID + "/events": 1, "GET /v1/jobs/" + job.ID: 1}
	if !reflect.DeepEqual(hits, want) {
		t.Fatalf("requests %v, want %v", hits, want)
	}
}

// TestCancelJob cancels a long SAT-backed job through the SDK and
// asserts the server forgets it.
func TestCancelJob(t *testing.T) {
	_, c := newServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	slow := history.BlindWriteHistory(4, 150)
	job, err := c.SubmitJob(ctx, client.JobRequest{Checker: "cobra", Level: "SER", TimeoutMillis: 60000, History: slow})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CancelJob(ctx, job.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	var apiErr *client.APIError
	if _, err := c.GetJob(ctx, job.ID); !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Fatalf("canceled job must 404, got %v", err)
	}
}

// TestAPIErrorSurface decodes the v1 envelope into a typed error.
func TestAPIErrorSurface(t *testing.T) {
	_, c := newServer(t)
	ctx := context.Background()
	_, err := c.SubmitJob(ctx, client.JobRequest{Checker: "bogus", History: history.SerialHistory(2)})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.StatusCode != 400 || apiErr.Code != "unknown_checker" || !strings.Contains(apiErr.Message, "bogus") {
		t.Fatalf("error surface: %+v", apiErr)
	}
	if apiErr.RequestID == "" {
		t.Fatal("request id must round-trip into the error")
	}
}

// TestSessionLifecycle drives the streaming API through the SDK: open,
// feed a violating pair, observe the flip, finalize, close.
func TestSessionLifecycle(t *testing.T) {
	_, c := newServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	sess, st, err := c.OpenSession(ctx, "SI", "x")
	if err != nil || st.Txns != 1 {
		t.Fatalf("open: %+v %v", st, err)
	}
	st, err = sess.Send(ctx,
		client.Txn(0, mtc.Read("x", 0), mtc.Write("x", 1)),
		client.Txn(1, mtc.Read("x", 0), mtc.Write("x", 2)), // lost update
	)
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	if st.OK || st.Report == nil || !strings.Contains(st.Report.Detail, "DIVERGENCE") {
		t.Fatalf("lost update not caught: %+v", st)
	}
	st, err = sess.Verdict(ctx, true)
	if err != nil || !st.Final {
		t.Fatalf("finalize: %+v %v", st, err)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestRetryOn429 exercises the SDK's Retry-After handling: with a
// one-worker, one-deep server, a burst of submissions eventually drains
// because the client retries 429s instead of failing.
func TestRetryOn429(t *testing.T) {
	srv := mtcserve.NewServer(nil)
	srv.Workers = 1
	srv.QueueDepth = 1
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL, client.WithRetries(5))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	h := history.SerialHistory(10, "x")
	for i := 0; i < 6; i++ {
		if _, err := c.SubmitJob(ctx, client.JobRequest{Level: "SI", History: h}); err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
	}
	// And with retry disabled the 429 surfaces as a typed error — fill
	// the pool with slow jobs first.
	noRetry := client.New(ts.URL, client.WithRetries(0))
	slow := history.BlindWriteHistory(4, 150)
	var sawBusy bool
	var ids []string
	for i := 0; i < 8; i++ {
		job, err := noRetry.SubmitJob(ctx, client.JobRequest{Checker: "cobra", Level: "SER", TimeoutMillis: 30000, History: slow})
		if err != nil {
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.StatusCode != 429 {
				t.Fatalf("want 429 APIError, got %v", err)
			}
			sawBusy = true
			break
		}
		ids = append(ids, job.ID)
	}
	for _, id := range ids {
		_ = noRetry.CancelJob(ctx, id)
	}
	if !sawBusy {
		t.Fatal("never saw the queue fill")
	}
}

// TestWindowedSessionRoundTrip drives a windowed streaming session
// through the SDK: the window is echoed, compaction kicks in while
// transactions stream, and the finalized verdict stays OK.
func TestWindowedSessionRoundTrip(t *testing.T) {
	ts, c := newServer(t)
	defer ts.Close()
	ctx := context.Background()

	sess, st, err := c.OpenSessionOpts(ctx, client.SessionOpts{
		Level: "SER", Keys: []mtc.Key{"x"}, Window: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Window != 32 {
		t.Fatalf("window not echoed: %+v", st)
	}
	last := mtc.Value(0)
	for i := 0; i < 200; i++ {
		v := mtc.Value(i + 1)
		st, err = sess.Send(ctx, client.Txn(i%3, mtc.Read("x", last), mtc.Write("x", v)))
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		last = v
	}
	if !st.OK || st.CompactedEpochs == 0 || st.LiveTxns >= 150 {
		t.Fatalf("compaction did not engage: %+v", st)
	}
	st, err = sess.Verdict(ctx, true)
	if err != nil || !st.Final || !st.OK {
		t.Fatalf("final verdict: %+v (%v)", st, err)
	}
	if st.Txns != 201 || st.Report == nil || st.Report.CompactedEpochs != st.CompactedEpochs {
		t.Fatalf("verdict stats: %+v", st)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestJobWindowOption: a job carrying a window runs the windowed replay
// and reports its compaction stats in the final report.
func TestJobWindowOption(t *testing.T) {
	ts, c := newServer(t)
	defer ts.Close()
	ctx := context.Background()

	b := mtc.NewHistoryBuilder("x")
	last := mtc.Value(0)
	for i := 0; i < 300; i++ {
		v := mtc.Value(i + 1)
		b.Txn(i%3, mtc.Read("x", last), mtc.Write("x", v))
		last = v
	}
	h := b.Build()
	rep, err := c.Check(ctx, client.JobRequest{
		Checker: "mtc-incremental", Level: "SER", Window: 64, History: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.CompactedEpochs == 0 || rep.CompactedTxns == 0 {
		t.Fatalf("windowed job did not compact: %+v", rep)
	}
	// Negative windows are rejected up front.
	if _, err := c.SubmitJob(ctx, client.JobRequest{Window: -1, History: h}); err == nil {
		t.Fatal("negative window must be rejected")
	}
}

// TestSubmitBodyIsJSONMarshal pins the SDK's submit body to plain
// json.Marshal of the request — the spelling the server's job door
// scans in one pass (api.TestJobMarshalTakesFastPath); an indenting or
// re-wrapping encoder here would silently demote every SDK job to the
// encoding/json route.
func TestSubmitBodyIsJSONMarshal(t *testing.T) {
	var got []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"j1","state":"queued"}`))
	}))
	defer ts.Close()
	req := client.JobRequest{Checker: "mtc", Level: "SI", Shard: 2, History: history.FixtureByName("WriteSkew").H}
	if _, err := client.New(ts.URL).SubmitJob(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("submit body %s, want json.Marshal's %s", got, want)
	}
}

// TestCheckReadsLargeReport: the terminal event carries the whole
// report, here 30 000 thin-air reads — several MiB on one event line —
// and Check returns all of them.
func TestCheckReadsLargeReport(t *testing.T) {
	_, c := newServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 30000
	b := mtc.NewHistoryBuilder("x")
	for i := 0; i < n; i++ {
		b.Txn(i%4, mtc.Read("x", mtc.Value(n+i)))
	}
	rep, err := c.Check(ctx, client.JobRequest{Level: "SER", History: b.Build()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || len(rep.Anomalies) != n {
		t.Fatalf("report: ok=%v with %d anomalies, want %d", rep.OK, len(rep.Anomalies), n)
	}
}
