package mtcserve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"mtc/internal/api"
	"mtc/internal/checker"
	"mtc/internal/fabric"
	"mtc/internal/history"
)

// fabricPull posts a pull for worker id with the given Accept-Encoding
// and returns the raw response plus the decoded task (inflating the
// body when the server compressed it). Setting Accept-Encoding manually
// disables the transport's transparent decompression, so the wire
// Content-Encoding header is observable.
func fabricPull(t *testing.T, ts *httptest.Server, id, acceptEncoding string) (*http.Response, *api.FabricTask) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/fabric/workers/"+id+"/pull", nil)
	if err != nil {
		t.Fatal(err)
	}
	if acceptEncoding != "" {
		req.Header.Set("Accept-Encoding", acceptEncoding)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	body := io.Reader(resp.Body)
	if resp.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(resp.Body)
		if err != nil {
			t.Fatalf("inflating pull response: %v", err)
		}
		defer zr.Close()
		body = zr
	}
	var task api.FabricTask
	if err := json.NewDecoder(body).Decode(&task); err != nil {
		t.Fatalf("decoding pull response: %v", err)
	}
	return resp, &task
}

// bigTwoComponentHistory builds a history with two key-disjoint tenants,
// each large enough that its component task body clears
// fabric.GzipThreshold.
func bigTwoComponentHistory() *history.History {
	b := history.NewBuilder("a0", "b0")
	for i := 0; i < 400; i++ {
		ka, kb := history.Key(fmt.Sprintf("a%d", i%8)), history.Key(fmt.Sprintf("b%d", i%8))
		b.Txn(0, history.R(ka, 0), history.W(ka, history.Value(i+1)))
		b.Txn(1, history.R(kb, 0), history.W(kb, history.Value(i+1)))
	}
	return b.Build()
}

// TestFabricPullGzipNegotiation: a pull that advertises gzip gets a
// compressed task body when the payload clears the threshold; a pull
// that does not stays identity-encoded. Both decode to valid tasks.
func TestFabricPullGzipNegotiation(t *testing.T) {
	srv, coord, ts := coordServer(t, filepath.Join(t.TempDir(), "fabric.wal"))
	defer ts.Close()
	defer srv.Close()
	defer coord.Close()

	resp, raw := doJSON(t, "POST", ts.URL+"/v1/fabric/workers", api.WorkerHello{Name: "wz", Codecs: []string{"mtcb"}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, raw)
	}
	var lease api.WorkerLease
	if err := json.Unmarshal(raw, &lease); err != nil {
		t.Fatal(err)
	}
	if err := coord.Submit("gz1", "mtc", bigTwoComponentHistory(), checker.Options{Level: "SI"}); err != nil {
		t.Fatal(err)
	}

	resp, task := fabricPull(t, ts, lease.ID, "gzip")
	if task == nil {
		t.Fatalf("no task on gzip pull: %d", resp.StatusCode)
	}
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("large pull body not gzipped (Content-Encoding=%q)", resp.Header.Get("Content-Encoding"))
	}
	if h, err := history.ReadMTCB(bytes.NewReader(task.HistoryMTCB)); err != nil || len(h.Txns) == 0 {
		t.Fatalf("gzipped task decodes empty: %+v (%v)", task, err)
	}

	resp, task2 := fabricPull(t, ts, lease.ID, "")
	if task2 == nil {
		t.Fatalf("no second task: %d", resp.StatusCode)
	}
	if ce := resp.Header.Get("Content-Encoding"); ce != "" {
		t.Fatalf("pull without Accept-Encoding: gzip was %q-encoded", ce)
	}
	if task2.Component == task.Component {
		t.Fatalf("same component pulled twice: %d", task.Component)
	}
}

// TestFabricResultsGzipBody: the results endpoint inflates gzipped
// request bodies, and rejects bodies that claim gzip but are not.
func TestFabricResultsGzipBody(t *testing.T) {
	srv, coord, ts := coordServer(t, filepath.Join(t.TempDir(), "fabric.wal"))
	defer ts.Close()
	defer srv.Close()
	defer coord.Close()

	lease := coord.Register(api.WorkerHello{Name: "wr"})
	if err := coord.Submit("gz2", "mtc", bigTwoComponentHistory(), checker.Options{Level: "SI"}); err != nil {
		t.Fatal(err)
	}
	task, err := coord.Pull(lease.ID)
	if err != nil || task == nil {
		t.Fatalf("pull: %v %v", task, err)
	}
	h, err := history.ReadMTCB(bytes.NewReader(task.HistoryMTCB))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := checker.Default.Run(t.Context(), task.Checker, h, checker.Options{Level: checker.Level(task.Level)})
	if err != nil {
		t.Fatal(err)
	}
	res := api.FabricResult{Job: task.Job, Component: task.Component, Epoch: task.Epoch, Report: &rep}
	plain, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var zb bytes.Buffer
	zw := gzip.NewWriter(&zb)
	if _, err := zw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	url := ts.URL + "/v1/fabric/workers/" + lease.ID + "/results"
	req, err := http.NewRequest("POST", url, &zb)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ack api.FabricAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !ack.Accepted {
		t.Fatalf("gzipped result rejected: %d %+v", resp.StatusCode, ack)
	}

	// A body that claims gzip but is not must 400, not crash the decode.
	req, err = http.NewRequest("POST", url, bytes.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Encoding", "gzip")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fake-gzip result body: %d, want 400", resp.StatusCode)
	}
}

// TestFabricGzipThresholdSkipsSmallBodies: sub-threshold pull bodies are
// never compressed even when the client accepts gzip.
func TestFabricGzipThresholdSkipsSmallBodies(t *testing.T) {
	srv, coord, ts := coordServer(t, filepath.Join(t.TempDir(), "fabric.wal"))
	defer ts.Close()
	defer srv.Close()
	defer coord.Close()

	lease := coord.Register(api.WorkerHello{Name: "ws"})
	b := history.NewBuilder("x")
	b.Txn(0, history.W("x", 1))
	if err := coord.Submit("gz3", "mtc", b.Build(), checker.Options{Level: "SI"}); err != nil {
		t.Fatal(err)
	}
	resp, task := fabricPull(t, ts, lease.ID, "gzip")
	if task == nil {
		t.Fatalf("no task: %d", resp.StatusCode)
	}
	if ce := resp.Header.Get("Content-Encoding"); ce != "" {
		t.Fatalf("tiny body compressed (%q) below threshold %d", ce, fabric.GzipThreshold)
	}
}
