package mtcserve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"mtc/internal/api"
	"mtc/internal/history"
)

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if s, ok := body.(string); ok {
		buf.WriteString(s)
	} else if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

// TestCheckersEndpoint: GET /v1/checkers lists exactly the ten base
// engines — sharding is a job option, not a second name per engine.
func TestCheckersEndpoint(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	resp, body := doJSON(t, "GET", ts.URL+"/v1/checkers", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/checkers: %d", resp.StatusCode)
	}
	var infos []checkerInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ci := range infos {
		if len(ci.Levels) == 0 {
			t.Fatalf("%s lists no levels", ci.Name)
		}
		got = append(got, ci.Name)
	}
	want := []string{"cobra", "elle", "mtc", "mtc-incremental", "polysi", "porcupine", "profile"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/v1/checkers lists %v, want %v", got, want)
	}
}

// TestStreamingSessionLifecycle drives a full session: open with keys,
// feed clean transactions, read the verdict, finalize, and delete.
func TestStreamingSessionLifecycle(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()

	resp, body := doJSON(t, "POST", ts.URL+"/v1/sessions", api.SessionRequest{Level: "SER", Keys: []history.Key{"x", "y"}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open: %d %s", resp.StatusCode, body)
	}
	var st api.SessionStatus
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		t.Fatalf("open body: %s (%v)", body, err)
	}
	if st.Txns != 1 { // ⊥T
		t.Fatalf("want init txn counted, got %+v", st)
	}

	txns := []history.Txn{
		{Session: 0, Committed: true, Ops: []history.Op{history.R("x", 0), history.W("x", 1)}},
		{Session: 1, Committed: true, Ops: []history.Op{history.R("x", 1), history.W("x", 2)}},
	}
	resp, body = doJSON(t, "POST", ts.URL+"/v1/sessions/"+st.ID+"/txns", txns)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feed: %d %s", resp.StatusCode, body)
	}
	_ = json.Unmarshal(body, &st)
	if !st.OK || st.Txns != 3 {
		t.Fatalf("after feed: %+v", st)
	}

	// Single-object payloads are accepted too.
	one := history.Txn{Session: 0, Committed: true, Ops: []history.Op{history.R("y", 0), history.W("y", 7)}}
	resp, body = doJSON(t, "POST", ts.URL+"/v1/sessions/"+st.ID+"/txns", one)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feed one: %d %s", resp.StatusCode, body)
	}

	resp, body = doJSON(t, "GET", ts.URL+"/v1/sessions/"+st.ID+"/verdict?final=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verdict: %d", resp.StatusCode)
	}
	_ = json.Unmarshal(body, &st)
	if !st.Final || !st.OK || st.Report == nil || !st.Report.OK {
		t.Fatalf("final verdict: %s", body)
	}

	// Feeding a finalized session conflicts.
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/sessions/"+st.ID+"/txns", one)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("feed after final must 409, got %d", resp.StatusCode)
	}

	resp, _ = doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+st.ID, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, "GET", ts.URL+"/v1/sessions/"+st.ID+"/verdict", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session must 404, got %d", resp.StatusCode)
	}
}

// TestSessionOpenManyKeysIsNotQuadratic: opening a session over 100 000
// keys given unsorted — about what the 1 MiB cap on this body admits — is
// a sort, not k²/2 string compares, which pinned a handler for 20 s.
func TestSessionOpenManyKeysIsNotQuadratic(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	const k = 100_000
	keys := make([]history.Key, k)
	for i := range keys {
		keys[i] = history.Key("k" + strconv.Itoa((i*7919)%k)) // 7919 is coprime to k: a permutation
	}
	start := time.Now()
	resp, body := doJSON(t, "POST", ts.URL+"/v1/sessions", api.SessionRequest{Level: "SI", Keys: keys})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open over %d keys: %d %.200s", k, resp.StatusCode, body)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("open over %d keys took %v", k, took)
	}
}

// TestStreamingSessionCatchesViolation feeds a lost update and expects
// the verdict to flip mid-stream, before finalize.
func TestStreamingSessionCatchesViolation(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()

	_, body := doJSON(t, "POST", ts.URL+"/v1/sessions", api.SessionRequest{Level: "SI", Keys: []history.Key{"x"}})
	var st api.SessionStatus
	_ = json.Unmarshal(body, &st)

	txns := []history.Txn{
		{Session: 0, Committed: true, Ops: []history.Op{history.R("x", 0), history.W("x", 1)}},
		{Session: 1, Committed: true, Ops: []history.Op{history.R("x", 0), history.W("x", 2)}}, // lost update
	}
	resp, body := doJSON(t, "POST", ts.URL+"/v1/sessions/"+st.ID+"/txns", txns)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feed: %d", resp.StatusCode)
	}
	_ = json.Unmarshal(body, &st)
	if st.OK || st.Report == nil || st.Report.OK {
		t.Fatalf("lost update not caught: %s", body)
	}
	if !strings.Contains(st.Report.Detail, "DIVERGENCE") {
		t.Fatalf("want divergence witness, got %s", body)
	}
}

// TestStreamingSessionErrors covers the session error paths.
func TestStreamingSessionErrors(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()

	resp, raw := doJSON(t, "POST", ts.URL+"/v1/sessions", api.SessionRequest{Level: "SSER"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("SSER session must 400, got %d", resp.StatusCode)
	}
	var e api.ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
		t.Fatalf("error body not structured: %q", raw)
	}
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/sessions", "{bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad session body must 400, got %d", resp.StatusCode)
	}
	// ⊥T writes each declared key once: a repeated key is refused at open,
	// not reported as a DuplicateWrite the database never made.
	resp, raw = doJSON(t, "POST", ts.URL+"/v1/sessions", api.SessionRequest{Level: "SER", Keys: []history.Key{"x", "y", "x"}})
	if err := json.Unmarshal(raw, &e); resp.StatusCode != http.StatusBadRequest || err != nil ||
		e.Error.Code != api.CodeBadRequest || !strings.Contains(e.Error.Message, `"x"`) {
		t.Fatalf("repeated key answered %d %s, want 400 %s naming \"x\"", resp.StatusCode, raw, api.CodeBadRequest)
	}
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/sessions/nope/txns", []history.Txn{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session must 404, got %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, "DELETE", ts.URL+"/v1/sessions/nope", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session delete must 404, got %d", resp.StatusCode)
	}

	_, body := doJSON(t, "POST", ts.URL+"/v1/sessions", api.SessionRequest{Level: "si"})
	var st api.SessionStatus
	_ = json.Unmarshal(body, &st)
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/sessions/"+st.ID+"/txns", "{bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad txns payload must 400, got %d", resp.StatusCode)
	}
}

// TestDefaultCheckerFlagged exercises Server.DefaultChecker.
func TestDefaultCheckerFlagged(t *testing.T) {
	srv := NewServer(nil)
	srv.DefaultChecker = "cobra"
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	v := check(t, ts, "", "", history.SerialHistory(3, "x"))
	if v.Checker != "cobra" || v.Level != "SER" {
		t.Fatalf("default checker not applied: %+v", v)
	}
}

// TestSessionLimit bounds concurrently live sessions.
func TestSessionLimit(t *testing.T) {
	srv := NewServer(nil)
	srv.MaxSessions = 2
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	open := func() (*http.Response, api.SessionStatus) {
		resp, body := doJSON(t, "POST", ts.URL+"/v1/sessions", api.SessionRequest{Level: "SI"})
		var st api.SessionStatus
		_ = json.Unmarshal(body, &st)
		return resp, st
	}
	_, st1 := open()
	open()
	resp, _ := open()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third session must 429, got %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry a Retry-After header")
	}
	// Deleting a session frees a slot.
	doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+st1.ID, nil)
	if resp, _ := open(); resp.StatusCode != http.StatusCreated {
		t.Fatalf("slot not freed: %d", resp.StatusCode)
	}
}

// TestSessionTxnRequiresCommitted rejects txns omitting the committed
// field instead of silently treating them as aborted.
func TestSessionTxnRequiresCommitted(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	_, body := doJSON(t, "POST", ts.URL+"/v1/sessions", api.SessionRequest{Level: "SI", Keys: []history.Key{"x"}})
	var st api.SessionStatus
	_ = json.Unmarshal(body, &st)
	resp, raw := doJSON(t, "POST", ts.URL+"/v1/sessions/"+st.ID+"/txns",
		`[{"sess":0,"ops":[{"k":0,"key":"x","v":0},{"k":1,"key":"x","v":1}]}]`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing committed must 400, got %d (%s)", resp.StatusCode, raw)
	}
	var e api.ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
		t.Fatalf("error body not structured: %q", raw)
	}
}

// TestSessionWindowedCompaction opens a v1 session with a small window,
// streams several hundred clean RMW transactions, and asserts compaction
// kicks in mid-session: compacted_epochs grows, live_txns stays near the
// window, and the finalized verdict is still OK with every transaction
// accounted for.
func TestSessionWindowedCompaction(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()

	resp, body := doJSON(t, "POST", ts.URL+"/v1/sessions",
		api.SessionRequest{Level: "SER", Keys: []history.Key{"x", "y"}, Window: 64})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open: %d %s", resp.StatusCode, body)
	}
	var st api.SessionStatus
	if err := json.Unmarshal(body, &st); err != nil || st.Window != 64 {
		t.Fatalf("window not echoed: %s (%v)", body, err)
	}

	const total = 600
	val := int64(1)
	lastX, lastY := int64(0), int64(0)
	for i := 0; i < total; i += 50 {
		var batch []history.Txn
		for j := i; j < i+50; j++ {
			key, last := history.Key("x"), &lastX
			if j%2 == 1 {
				key, last = history.Key("y"), &lastY
			}
			batch = append(batch, history.Txn{
				Session: j % 4, Committed: true,
				Ops: []history.Op{
					{Kind: history.OpRead, Key: key, Value: history.Value(*last)},
					{Kind: history.OpWrite, Key: key, Value: history.Value(val)},
				},
			})
			*last = val
			val++
		}
		resp, body = doJSON(t, "POST", ts.URL+"/v1/sessions/"+st.ID+"/txns", batch)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("feed: %d %s", resp.StatusCode, body)
		}
		_ = json.Unmarshal(body, &st)
		if !st.OK {
			t.Fatalf("clean stream flagged: %s", body)
		}
	}
	if st.CompactedEpochs == 0 || st.CompactedTxns < total/2 {
		t.Fatalf("compaction did not kick in mid-session: %s", body)
	}
	if st.LiveTxns >= total/2 {
		t.Fatalf("live state not bounded by the window: %s", body)
	}
	if st.LiveEdges < st.LiveTxns-1 || st.LiveEdges > 12*st.LiveTxns {
		t.Fatalf("live_edges %d is not a small multiple of live_txns %d: %s", st.LiveEdges, st.LiveTxns, body)
	}

	resp, body = doJSON(t, "GET", ts.URL+"/v1/sessions/"+st.ID+"/verdict?final=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verdict: %d", resp.StatusCode)
	}
	_ = json.Unmarshal(body, &st)
	if !st.Final || !st.OK || st.Report == nil || !st.Report.OK {
		t.Fatalf("final verdict: %s", body)
	}
	if st.Txns != total+1 { // ⊥T + streamed
		t.Fatalf("txns = %d, want %d", st.Txns, total+1)
	}
	if st.Report.CompactedEpochs != st.CompactedEpochs {
		t.Fatalf("report/status compaction stats diverge: %s", body)
	}
}

// TestSessionRejectsNegativeWindow covers the validation path.
func TestSessionRejectsNegativeWindow(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	resp, raw := doJSON(t, "POST", ts.URL+"/v1/sessions", api.SessionRequest{Level: "SI", Window: -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative window must 400, got %d (%s)", resp.StatusCode, raw)
	}
}

// TestSessionAppendAfterFinalConflicts locks in the 409 contract on the
// v1 surface: once a verdict is finalized, appends conflict and the
// session slot can still be freed.
func TestSessionAppendAfterFinalConflicts(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	_, body := doJSON(t, "POST", ts.URL+"/v1/sessions", api.SessionRequest{Level: "SI", Keys: []history.Key{"x"}})
	var st api.SessionStatus
	_ = json.Unmarshal(body, &st)
	one := history.Txn{Session: 0, Committed: true, Ops: []history.Op{history.R("x", 0), history.W("x", 1)}}
	if resp, raw := doJSON(t, "POST", ts.URL+"/v1/sessions/"+st.ID+"/txns", one); resp.StatusCode != http.StatusOK {
		t.Fatalf("feed: %d %s", resp.StatusCode, raw)
	}
	if resp, _ := doJSON(t, "GET", ts.URL+"/v1/sessions/"+st.ID+"/verdict?final=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("finalize failed: %d", resp.StatusCode)
	}
	resp, raw := doJSON(t, "POST", ts.URL+"/v1/sessions/"+st.ID+"/txns", one)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("append after final must 409, got %d (%s)", resp.StatusCode, raw)
	}
	var e api.ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Error.Code != api.CodeConflict {
		t.Fatalf("409 body not structured: %q", raw)
	}
	if resp, _ := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+st.ID, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete after final: %d", resp.StatusCode)
	}
}

// TestSessionIdleEviction: once the idle timeout has passed, the next
// request to any route sweeps the idle session — it frees its slot and
// answers 404 afterwards — while a session used since survives.
func TestSessionIdleEviction(t *testing.T) {
	const idle = time.Second
	srv := NewServer(nil)
	srv.SessionIdleTimeout = idle
	srv.MaxSessions = 2
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	open := func() (int, api.SessionStatus) {
		resp, body := doJSON(t, "POST", ts.URL+"/v1/sessions", api.SessionRequest{Level: "SI", Keys: []history.Key{"x"}})
		var st api.SessionStatus
		_ = json.Unmarshal(body, &st)
		return resp.StatusCode, st
	}

	_, stale := open()
	time.Sleep(idle * 3 / 5)
	_, fresh := open()
	time.Sleep(idle * 3 / 5)
	// Both slots are taken: the third open fits only because the request
	// itself sweeps the stale session first.
	if code, _ := open(); code != http.StatusCreated {
		t.Fatalf("open after the idle timeout: %d, want the stale slot swept", code)
	}
	if resp, _ := doJSON(t, "GET", ts.URL+"/v1/sessions/"+stale.ID+"/verdict", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session must 404, got %d", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "GET", ts.URL+"/v1/sessions/"+fresh.ID+"/verdict", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("active session must survive the sweep, got %d", resp.StatusCode)
	}
}

// TestIdleSweepCadence: requests run the idle sweep at most once per
// quarter of the idle timeout, the first request included.
func TestIdleSweepCadence(t *testing.T) {
	srv := NewServer(nil)
	srv.SessionIdleTimeout = time.Minute
	now := time.Now()
	if !srv.sweepDue(now) {
		t.Fatal("the first request must sweep")
	}
	if srv.sweepDue(now.Add(15*time.Second - 1)) {
		t.Fatal("a request within a quarter timeout of the last sweep swept again")
	}
	if !srv.sweepDue(now.Add(15 * time.Second)) {
		t.Fatal("a request a quarter timeout after the last sweep must sweep")
	}
}
