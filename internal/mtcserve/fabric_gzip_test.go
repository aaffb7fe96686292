package mtcserve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mtc/internal/api"
	"mtc/internal/checker"
	"mtc/internal/fabric"
	"mtc/internal/history"
	"mtc/internal/shard"
)

// fabricPull posts a pull for worker id, advertising gzip the way a
// browser or proxy would, and returns the raw response plus the task:
// the FabricTaskHeader fields with the body as HistoryMTCB.
func fabricPull(t *testing.T, ts *httptest.Server, id string) (*http.Response, *api.FabricTask) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/fabric/workers/"+id+"/pull", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Set by hand, the header turns off the transport's transparent
	// decompression, so a Content-Encoding on the wire stays visible.
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var task api.FabricTask
	if err := json.Unmarshal([]byte(resp.Header.Get(api.FabricTaskHeader)), &task); err != nil {
		t.Fatalf("decoding the %s header: %v", api.FabricTaskHeader, err)
	}
	if task.HistoryMTCB, err = io.ReadAll(resp.Body); err != nil {
		t.Fatalf("reading pull body: %v", err)
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

// TestFabricPullRawMTCB: a pull answers application/x-mtcb with the
// component's cached MTCB bytes as the body, uncompressed even when the
// client accepts gzip, and the body decodes to the component's index.
func TestFabricPullRawMTCB(t *testing.T) {
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
	h := bigTwoComponentHistory()
	if err := coord.Submit("raw1", "mtc", h, checker.Options{Level: "SI"}); err != nil {
		t.Fatal(err)
	}
	plan := shard.Split(h)
	seen := map[int]bool{}
	for range plan.Components {
		resp, task := fabricPull(t, ts, lease.ID)
		if task == nil {
			t.Fatalf("no task: %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != api.ContentTypeMTCB {
			t.Fatalf("pull Content-Type %q, want %q", ct, api.ContentTypeMTCB)
		}
		if ce := resp.Header.Get("Content-Encoding"); ce != "" {
			t.Fatalf("pull body is %q-encoded; MTCB travels raw", ce)
		}
		if task.Job != "raw1" || task.Checker != "mtc" || task.Level != "SI" || task.Epoch != 1 || seen[task.Component] {
			t.Fatalf("task header: %+v", task)
		}
		seen[task.Component] = true
		ix, err := history.ReadMTCBIndexed(bytes.NewReader(task.HistoryMTCB))
		if err != nil {
			t.Fatalf("component %d: %v", task.Component, err)
		}
		comp := plan.Components[task.Component].H
		want := history.NewIndex(comp)
		if !reflect.DeepEqual(ix.History(), comp) || !reflect.DeepEqual(ix.SortedKeys(), want.SortedKeys()) ||
			ix.NumReads() != want.NumReads() || ix.NumWriterSlots() != want.NumWriterSlots() {
			t.Fatalf("component %d: the body decodes to a different index", task.Component)
		}
	}
	if resp, task := fabricPull(t, ts, lease.ID); task != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("pull after the plan is out: %d %+v", resp.StatusCode, task)
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

// TestFabricGzipThresholdSkipsSmallBodies: a real worker sends the
// result of a small component uncompressed — below fabric.GzipThreshold
// the gzip overhead would exceed the saving.
func TestFabricGzipThresholdSkipsSmallBodies(t *testing.T) {
	srv, coord, ts := coordServer(t, filepath.Join(t.TempDir(), "fabric.wal"))
	defer ts.Close()
	defer srv.Close()
	defer coord.Close()

	var (
		mu        sync.Mutex
		encodings []string
	)
	h := srv.Handler()
	spy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/results") {
			mu.Lock()
			encodings = append(encodings, r.Header.Get("Content-Encoding"))
			mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	defer spy.Close()
	stop := startFabricWorkers(t, spy.URL, 1)
	defer stop()

	b := history.NewBuilder("x")
	b.Txn(0, history.W("x", 1))
	if err := coord.Submit("gz3", "mtc", b.Build(), checker.Options{Level: "SI"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := coord.Wait(ctx, "gz3"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(encodings) != 1 || encodings[0] != "" {
		t.Fatalf("result Content-Encodings %q, want one identity body below threshold %d", encodings, fabric.GzipThreshold)
	}
}
