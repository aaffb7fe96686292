package mtcserve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mtc/internal/api"
	"mtc/internal/history"
)

// openStreamSession opens a streaming session over HTTP and returns its
// id.
func openStreamSession(t *testing.T, ts *httptest.Server, req api.SessionRequest) string {
	t.Helper()
	resp, raw := doJSON(t, "POST", ts.URL+"/v1/sessions", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open session: %d %s", resp.StatusCode, raw)
	}
	var st api.SessionStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// mtcbFrame encodes txns as one MTCB document with dense ids, the wire
// form POST /v1/sessions/{id}/batch accepts.
func mtcbFrame(t *testing.T, txns []history.Txn) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw, err := history.NewBinaryWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range txns {
		txns[i].ID = i
		if err := bw.WriteTxn(txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postBatch posts one binary frame and decodes the session status.
func postBatch(t *testing.T, ts *httptest.Server, id string, frame []byte) (*http.Response, api.SessionStatus) {
	t.Helper()
	resp, raw := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/batch", string(frame))
	var st api.SessionStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("batch status body: %v (%s)", err, raw)
		}
	}
	return resp, st
}

// TestSessionBatchIngest feeds the same transactions to one session via
// JSON /txns and to another via binary /batch frames: the running
// statuses must agree record for record, including the violation flip.
func TestSessionBatchIngest(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()

	committed := true
	mk := func(sess int, ops ...history.Op) (api.TxnPayload, history.Txn) {
		return api.TxnPayload{Sess: sess, Ops: ops, Committed: &committed},
			history.Txn{Session: sess, Ops: ops, Committed: committed}
	}
	// A lost-update pattern that violates SI: both txns read x=0 and
	// write it, so the second one must flip the verdict.
	p1, t1 := mk(0, history.R("x", 0), history.W("x", 1))
	p2, t2 := mk(1, history.R("x", 0), history.W("x", 2))

	jsonID := openStreamSession(t, ts, api.SessionRequest{Level: "SI", Keys: []history.Key{"x"}})
	binID := openStreamSession(t, ts, api.SessionRequest{Level: "SI", Keys: []history.Key{"x"}})

	resp, rawJSON := doJSON(t, "POST", ts.URL+"/v1/sessions/"+jsonID+"/txns", []api.TxnPayload{p1, p2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json txns: %d %s", resp.StatusCode, rawJSON)
	}
	var jsonSt api.SessionStatus
	if err := json.Unmarshal(rawJSON, &jsonSt); err != nil {
		t.Fatal(err)
	}

	resp, binSt := postBatch(t, ts, binID, mtcbFrame(t, []history.Txn{t1, t2}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d", resp.StatusCode)
	}
	if binSt.Txns != jsonSt.Txns || binSt.OK != jsonSt.OK || binSt.Edges != jsonSt.Edges {
		t.Fatalf("binary ingest diverges from JSON ingest:\nbinary: %+v\njson:   %+v", binSt, jsonSt)
	}
	if binSt.OK {
		t.Fatalf("lost update not flagged through batch ingest: %+v", binSt)
	}
}

// TestSessionBatchMultiFrame sends several frames through one session —
// the arena and interner persist across frames — and checks the clean
// stream stays clean with the right transaction count.
func TestSessionBatchMultiFrame(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	id := openStreamSession(t, ts, api.SessionRequest{Level: "SI", Keys: []history.Key{"x", "y"}})
	v := history.Value(1)
	var last history.Value
	for frame := 0; frame < 3; frame++ {
		var txns []history.Txn
		for i := 0; i < 4; i++ {
			txns = append(txns, history.Txn{
				Session: i % 2, Committed: true,
				Ops: []history.Op{history.R("x", last), history.W("x", v)},
			})
			last, v = v, v+1
		}
		resp, st := postBatch(t, ts, id, mtcbFrame(t, txns))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("frame %d: %d", frame, resp.StatusCode)
		}
		// +1 for the implicit init transaction from the declared keys.
		if want := 1 + (frame+1)*4; st.Txns != want || !st.OK {
			t.Fatalf("frame %d: txns=%d ok=%v, want %d/true", frame, st.Txns, st.OK, want)
		}
	}
}

// TestSessionBatchGzip: a gzip-wrapped frame is accepted transparently
// (the binary reader sniffs the gzip magic).
func TestSessionBatchGzip(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	id := openStreamSession(t, ts, api.SessionRequest{Level: "SI", Keys: []history.Key{"x"}})
	frame := mtcbFrame(t, []history.Txn{
		{Session: 0, Committed: true, Ops: []history.Op{history.W("x", 1)}},
	})
	var zb bytes.Buffer
	zw := gzip.NewWriter(&zb)
	if _, err := zw.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	resp, st := postBatch(t, ts, id, zb.Bytes())
	if resp.StatusCode != http.StatusOK || st.Txns != 2 { // init + 1
		t.Fatalf("gzipped frame: %d %+v", resp.StatusCode, st)
	}
}

// TestSessionBatchRejections: a frame with an init record, a corrupt
// frame, and a truncated frame all 400 without ingesting anything — a
// batch is atomic — and a finalized session answers 409.
func TestSessionBatchRejections(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	id := openStreamSession(t, ts, api.SessionRequest{Level: "SI", Keys: []history.Key{"x"}})

	good := mtcbFrame(t, []history.Txn{
		{Session: 0, Committed: true, Ops: []history.Op{history.W("x", 1)}},
	})
	if resp, st := postBatch(t, ts, id, good); resp.StatusCode != http.StatusOK || st.Txns != 2 { // init + 1
		t.Fatalf("seed frame: %d %+v", resp.StatusCode, st)
	}

	withInit := mtcbFrame(t, []history.Txn{
		{Session: -1, Committed: true, Ops: []history.Op{history.W("x", 0)}},
		{Session: 0, Committed: true, Ops: []history.Op{history.W("x", 2)}},
	})
	truncated := good[:len(good)-1]
	garbage := []byte("not an mtcb frame at all")
	for _, tc := range []struct {
		name  string
		frame []byte
	}{{"init record", withInit}, {"truncated", truncated}, {"garbage", garbage}} {
		resp, _ := postBatch(t, ts, id, tc.frame)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// Nothing from the rejected frames took effect.
	resp, raw := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id+"/verdict", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verdict: %d", resp.StatusCode)
	}
	var st api.SessionStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Txns != 2 {
		t.Fatalf("rejected frames ingested transactions: %+v", st)
	}

	// Finalize, then batch must conflict.
	if resp, _ := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id+"/verdict?final=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("finalize: %d", resp.StatusCode)
	}
	if resp, _ := postBatch(t, ts, id, good); resp.StatusCode != http.StatusConflict {
		t.Fatalf("batch after finalize: %d, want 409", resp.StatusCode)
	}

	if resp, _ := postBatch(t, ts, "nope", good); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("batch on unknown session: want 404")
	}
}

// TestSessionIngestRejectsNegativeSession: both ingest routes refuse a
// transaction with a negative session number — the init record's marker,
// which would otherwise reach the online checker as an ordinary session —
// with 400 bad_request, and apply nothing of the request: not the valid
// transaction ahead of the offending one (JSON), nor the one behind it
// (MTCB only encodes an init record first).
func TestSessionIngestRejectsNegativeSession(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	good := history.Txn{Session: 0, Committed: true, Ops: []history.Op{history.R("x", 0), history.W("x", 1)}}
	bad := history.Txn{Session: -1, Committed: true, Ops: []history.Op{history.W("x", 0)}}
	for _, route := range []struct {
		name string
		post func(id string) (*http.Response, []byte)
	}{
		{"txns", func(id string) (*http.Response, []byte) {
			yes := true
			var payloads []api.TxnPayload
			for _, txn := range []history.Txn{good, bad} {
				payloads = append(payloads, api.TxnPayload{Sess: txn.Session, Ops: txn.Ops, Committed: &yes})
			}
			return doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/txns", payloads)
		}},
		{"batch", func(id string) (*http.Response, []byte) {
			return doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/batch", string(mtcbFrame(t, []history.Txn{bad, good})))
		}},
	} {
		id := openStreamSession(t, ts, api.SessionRequest{Level: "SER", Keys: []history.Key{"x"}})
		resp, raw := route.post(id)
		var e api.ErrorResponse
		if err := json.Unmarshal(raw, &e); resp.StatusCode != http.StatusBadRequest || err != nil || e.Error.Code != api.CodeBadRequest {
			t.Fatalf("%s: negative session answered %d %s, want 400 %s", route.name, resp.StatusCode, raw, api.CodeBadRequest)
		}
		_, raw = doJSON(t, "GET", ts.URL+"/v1/sessions/"+id+"/verdict", nil)
		var st api.SessionStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if st.Txns != 1 { // the init transaction only
			t.Fatalf("%s: rejected request ingested transactions: %+v", route.name, st)
		}
	}
}
