package mtcserve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mtc/internal/api"
	"mtc/internal/history"
)

// tenantHistory builds a clean two-tenant history: two sessions, each
// over its own key — two components for the sharded job path.
func tenantJobHistory() *history.History {
	b := history.NewBuilder("a", "b")
	last := map[history.Key]history.Value{}
	val := history.Value(1)
	for i := 0; i < 10; i++ {
		for s, k := range []history.Key{"a", "b"} {
			b.Txn(s, history.R(k, last[k]), history.W(k, val))
			last[k] = val
			val++
		}
	}
	return b.Build()
}

// TestJobSharded submits a multi-tenant history with the shard knob and
// asserts the job kept its engine name, echoed the effective knobs, and
// reported the component decomposition.
func TestJobSharded(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	resp, job := submitJob(t, ts, api.JobRequest{Checker: "mtc", Level: "SI", Shard: 1, History: tenantJobHistory()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sharded job rejected: %d", resp.StatusCode)
	}
	if job.Checker != "mtc" || job.Shard != 1 {
		t.Fatalf("job document: checker %q shard %d, want mtc/1", job.Checker, job.Shard)
	}
	done := waitJob(t, ts, job.ID, 5*time.Second)
	if done.State != api.JobDone || done.Report == nil || !done.Report.OK {
		t.Fatalf("sharded job: %+v", done)
	}
	if done.Report.ShardComponents != 2 || done.Report.Checker != "mtc" {
		t.Fatalf("report: checker %q, %d components; want mtc, 2", done.Report.Checker, done.Report.ShardComponents)
	}
	// The unsharded job agrees on the verdict and edge count.
	_, ref := submitJob(t, ts, api.JobRequest{Checker: "mtc", Level: "SI", History: tenantJobHistory()})
	refDone := waitJob(t, ts, ref.ID, 5*time.Second)
	if refDone.Report == nil || refDone.Report.Edges != done.Report.Edges {
		t.Fatalf("edge counts diverge: sharded %d vs unsharded %+v", done.Report.Edges, refDone.Report)
	}
	// Sharding is the knob, not a name: the old twin is an unknown checker.
	resp, raw := doJSON(t, "POST", ts.URL+"/v1/jobs", api.JobRequest{Checker: "mtc-sharded", Level: "SI", Shard: 1, History: tenantJobHistory()})
	var e api.ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || e.Error.Code != api.CodeUnknownChecker {
		t.Fatalf("mtc-sharded: status %d code %q, want 400 %s", resp.StatusCode, e.Error.Code, api.CodeUnknownChecker)
	}
}
