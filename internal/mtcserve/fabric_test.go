package mtcserve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mtc/internal/api"
	"mtc/internal/checker"
	"mtc/internal/fabric"
	"mtc/internal/shard"
)

// coordServer builds a coordinator-mode server over the WAL at path and
// returns it with its test listener.
func coordServer(t *testing.T, path string) (*Server, *fabric.Coordinator, *httptest.Server) {
	t.Helper()
	coord, err := fabric.Open(path, fabric.Config{HeartbeatTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatalf("fabric.Open: %v", err)
	}
	srv := NewServer(nil)
	srv.Fabric = coord
	srv.JobTimeout = 30 * time.Second
	srv.AdoptFabricJobs()
	return srv, coord, httptest.NewServer(srv.Handler())
}

// startWorkers runs n fabric worker loops against the coordinator URL
// and returns a stop function that joins them.
func startFabricWorkers(t *testing.T, url string, n int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = fabric.RunWorker(ctx, fabric.WorkerConfig{
				Coordinator:  url,
				PollInterval: 5 * time.Millisecond,
			})
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// TestFabricDistributedJob runs the full distributed path — HTTP submit
// with "distributed": true, real worker loops pulling over the wire —
// and demands the verdict match single-node sharded checking.
func TestFabricDistributedJob(t *testing.T) {
	srv, coord, ts := coordServer(t, filepath.Join(t.TempDir(), "fabric.wal"))
	defer ts.Close()
	defer srv.Close()
	defer coord.Close()
	stop := startFabricWorkers(t, ts.URL, 2)
	defer stop()

	h := tenantJobHistory()
	resp, job := submitJob(t, ts, api.JobRequest{Checker: "mtc", Level: "SI", Distributed: true, History: h})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("distributed job rejected: %d", resp.StatusCode)
	}
	if !job.Distributed {
		t.Fatalf("job document does not echo distributed: %+v", job)
	}
	done := waitJob(t, ts, job.ID, 10*time.Second)
	if done.State != api.JobDone || done.Report == nil {
		t.Fatalf("distributed job: %+v", done)
	}
	eng, err := checker.Lookup("mtc")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := shard.Check(context.Background(), eng, h, checker.Options{Level: "SI", Shard: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := done.Report
	if got.OK != ref.OK || got.Txns != ref.Txns || got.Edges != ref.Edges || got.ShardComponents != ref.ShardComponents {
		t.Fatalf("distributed verdict diverges from single-node sharded:\nfabric: %+v\nlocal:  %+v", got, ref)
	}
}

// TestFabricRequiresCoordinator: a server without a fabric answers
// distributed submissions (and fabric endpoints) with structured 400s.
func TestFabricRequiresCoordinator(t *testing.T) {
	ts := httptest.NewServer(Handler())
	defer ts.Close()
	resp, _ := submitJob(t, ts, api.JobRequest{Checker: "mtc", Level: "SI", Distributed: true, History: tenantJobHistory()})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("distributed submit on a plain server: %d, want 400", resp.StatusCode)
	}
	r2, err := http.Get(ts.URL + "/v1/fabric/status")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("fabric status on a plain server: %d, want 400", r2.StatusCode)
	}
}

// TestFabricRegisterRequiresMTCB: every task ships its component as
// MTCB, so a hello that does not list the codec — a worker from another
// release — is refused at registration with a structured 400.
func TestFabricRegisterRequiresMTCB(t *testing.T) {
	srv, coord, ts := coordServer(t, filepath.Join(t.TempDir(), "fabric.wal"))
	defer ts.Close()
	defer srv.Close()
	defer coord.Close()
	for _, hello := range []api.WorkerHello{{Name: "old"}, {Name: "other", Codecs: []string{"cbor"}}} {
		resp, raw := doJSON(t, "POST", ts.URL+"/v1/fabric/workers", hello)
		var env api.ErrorResponse
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s: %v (%s)", hello.Name, err, raw)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != api.CodeBadRequest || env.RequestID == "" {
			t.Fatalf("%s: got %d %s, want a structured 400", hello.Name, resp.StatusCode, raw)
		}
	}
	if ws := coord.Status().Workers; len(ws) != 0 {
		t.Fatalf("refused hellos registered workers: %+v", ws)
	}
	resp, raw := doJSON(t, "POST", ts.URL+"/v1/fabric/workers", api.WorkerHello{Name: "new", Codecs: []string{"mtcb"}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("mtcb hello: %d %s", resp.StatusCode, raw)
	}
}

// TestFabricStatusEndpoint: workers and job progress are visible on
// GET /v1/fabric/status.
func TestFabricStatusEndpoint(t *testing.T) {
	srv, coord, ts := coordServer(t, filepath.Join(t.TempDir(), "fabric.wal"))
	defer ts.Close()
	defer srv.Close()
	defer coord.Close()
	stop := startFabricWorkers(t, ts.URL, 1)
	defer stop()

	deadline := time.Now().Add(5 * time.Second)
	for {
		var st api.FabricStatus
		resp, raw := doJSON(t, "GET", ts.URL+"/v1/fabric/status", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fabric status: %d %s", resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("fabric status body: %v", err)
		}
		if len(st.Workers) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never registered: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFabricCoordinatorRestart is the server-level durability story: a
// coordinator restart on the same WAL re-exposes completed jobs with
// their verdicts (no worker needed — proof they are not re-run) and
// resumes pending ones, while fresh submissions skip past recovered ids.
func TestFabricCoordinatorRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.wal")
	srv1, coord1, ts1 := coordServer(t, path)
	srv1.JobTimeout = 200 * time.Millisecond // unblock srv1's pool quickly after the "crash"
	stop := startFabricWorkers(t, ts1.URL, 2)

	h := tenantJobHistory()
	_, jobA := submitJob(t, ts1, api.JobRequest{Checker: "mtc", Level: "SI", Distributed: true, History: h})
	doneA := waitJob(t, ts1, jobA.ID, 10*time.Second)
	if doneA.State != api.JobDone || doneA.Report == nil {
		t.Fatalf("jobA: %+v", doneA)
	}
	stop() // workers die before jobB can be executed
	_, jobB := submitJob(t, ts1, api.JobRequest{Checker: "mtc", Level: "SI", Distributed: true, History: h})

	// "Crash": the WAL closes with jobB pending. (srv1's pool worker
	// times out on its Wait shortly after; its attempt to persist the
	// timeout hits the closed WAL and is dropped — exactly what a real
	// crash does.)
	ts1.Close()
	if err := coord1.Close(); err != nil {
		t.Fatalf("coord1 close: %v", err)
	}

	srv2, coord2, ts2 := coordServer(t, path)
	defer ts2.Close()
	defer srv2.Close()
	defer coord2.Close()

	// jobA is served terminal from the WAL — srv2 has no workers yet, so
	// the report can only come from the log, never a re-run.
	gotA := waitJob(t, ts2, jobA.ID, 2*time.Second)
	if gotA.State != api.JobDone || gotA.Report == nil || gotA.Report.Edges != doneA.Report.Edges {
		t.Fatalf("jobA after restart: %+v", gotA)
	}
	// jobB is pending until workers arrive, then completes.
	stop2 := startFabricWorkers(t, ts2.URL, 2)
	defer stop2()
	gotB := waitJob(t, ts2, jobB.ID, 10*time.Second)
	if gotB.State != api.JobDone || gotB.Report == nil || gotB.Report.Edges != doneA.Report.Edges {
		t.Fatalf("jobB after restart: %+v", gotB)
	}
	// A fresh submission must not collide with recovered ids.
	_, jobC := submitJob(t, ts2, api.JobRequest{Checker: "mtc", Level: "SI", Distributed: true, History: h})
	if jobC.ID == jobA.ID || jobC.ID == jobB.ID {
		t.Fatalf("fresh job reused a recovered id: %s", jobC.ID)
	}
	if gotC := waitJob(t, ts2, jobC.ID, 10*time.Second); gotC.State != api.JobDone {
		t.Fatalf("jobC: %+v", gotC)
	}
}

// TestFabricWorkerKilledMidJob kills one of two workers while a job is
// in flight and asserts the survivors still complete it with the
// single-node verdict — the liveness sweep requeues the dead worker's
// components.
func TestFabricWorkerKilledMidJob(t *testing.T) {
	srv, coord, ts := coordServer(t, filepath.Join(t.TempDir(), "fabric.wal"))
	defer ts.Close()
	defer srv.Close()
	defer coord.Close()

	// Worker 1 lives throughout; worker 2 is killed as soon as the job
	// is submitted.
	stop1 := startFabricWorkers(t, ts.URL, 1)
	defer stop1()
	stop2 := startFabricWorkers(t, ts.URL, 1)

	h := tenantJobHistory()
	_, job := submitJob(t, ts, api.JobRequest{Checker: "mtc", Level: "SI", Distributed: true, History: h})
	stop2()
	done := waitJob(t, ts, job.ID, 15*time.Second)
	if done.State != api.JobDone || done.Report == nil {
		t.Fatalf("job after worker death: %+v", done)
	}
	eng, _ := checker.Lookup("mtc")
	ref, err := shard.Check(context.Background(), eng, h, checker.Options{Level: "SI", Shard: 2})
	if err != nil {
		t.Fatal(err)
	}
	if done.Report.OK != ref.OK || done.Report.Edges != ref.Edges || done.Report.Txns != ref.Txns {
		t.Fatalf("verdict after worker death diverges:\nfabric: %+v\nlocal:  %+v", done.Report, ref)
	}
}

// gateChecker's Name blocks until released. Registering it on the
// coordinator's registry therefore holds that registry's write lock —
// and with it every Lookup, the first thing Coordinator.Submit does —
// for as long as the test wants.
type gateChecker struct {
	checker.Checker
	entered, release chan struct{}
}

func (g *gateChecker) Name() string {
	close(g.entered)
	<-g.release
	return "gate"
}

// TestFabricJobRegisteredBeforeQueued holds a distributed submission
// inside Coordinator.Submit and asserts the job is not yet visible to
// the pool: a pool worker that got it first would ask the coordinator to
// wait on a job it has never heard of and fail it with "fabric: unknown
// job" (the race PR 11's serve-jobs workload lost about once in 400).
func TestFabricJobRegisteredBeforeQueued(t *testing.T) {
	eng, err := checker.Lookup("mtc")
	if err != nil {
		t.Fatal(err)
	}
	reg := &checker.Registry{}
	reg.Register(eng)
	coord, err := fabric.Open(filepath.Join(t.TempDir(), "fabric.wal"), fabric.Config{Registry: reg})
	if err != nil {
		t.Fatalf("fabric.Open: %v", err)
	}
	defer coord.Close()
	srv := NewServer(nil)
	srv.Fabric = coord
	srv.JobTimeout = 30 * time.Second
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	stop := startFabricWorkers(t, ts.URL, 1)
	defer stop()

	gate := &gateChecker{Checker: eng, entered: make(chan struct{}), release: make(chan struct{})}
	var once sync.Once
	open := func() { once.Do(func() { close(gate.release) }) }
	registered := make(chan struct{})
	go func() {
		defer close(registered)
		reg.Register(gate)
	}()
	defer func() {
		open()
		<-registered
	}()
	<-gate.entered

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(api.JobRequest{Checker: "mtc", Level: "SI", Distributed: true, History: tenantJobHistory()}); err != nil {
		t.Fatal(err)
	}
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", &buf)
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()

	// The handler allocates the job id, then submits to the coordinator:
	// once the id exists the handler is at (or about to enter) the gated
	// Submit, and it cannot get past it.
	deadline := time.Now().Add(10 * time.Second)
	for allocated := false; !allocated; {
		srv.jobsMu.Lock()
		allocated = srv.nextJobID == 1
		srv.jobsMu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("submission never reached id allocation")
		}
		time.Sleep(time.Millisecond)
	}
	if j := srv.lookupJob("j1"); j != nil {
		t.Fatalf("job is visible to the pool (state %s) before the coordinator registered it", j.status().State)
	}

	open()
	if code := <-status; code != http.StatusAccepted {
		t.Fatalf("distributed job rejected: %d", code)
	}
	if done := waitJob(t, ts, "j1", 10*time.Second); done.State != api.JobDone {
		t.Fatalf("distributed job: %+v", done)
	}
}
