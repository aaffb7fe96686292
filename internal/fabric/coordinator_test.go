package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mtc/internal/api"
	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/history"
	"mtc/internal/shard"
)

// fakeClock drives the coordinator's liveness sweeps deterministically:
// no test here ever sleeps to make a worker die.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// tenantHistory builds a clean multi-tenant history with exactly
// `tenants` key/session-disjoint components of equal size.
func tenantHistory(tenants, txnsPerSession int) *history.History {
	sizes := make([]int, tenants)
	for i := range sizes {
		sizes[i] = txnsPerSession
	}
	return skewedHistory(sizes...)
}

// skewedHistory builds a clean history whose i-th tenant is one
// component of exactly sizes[i] transactions.
func skewedHistory(sizes ...int) *history.History {
	var keys []history.Key
	for tn := range sizes {
		keys = append(keys, history.Key(fmt.Sprintf("t%dk", tn)))
	}
	b := history.NewBuilder(keys...)
	val := history.Value(1)
	for tn, n := range sizes {
		last := history.Value(0)
		for i := 0; i < n; i++ {
			b.Txn(tn, history.R(keys[tn], last), history.W(keys[tn], val))
			last = val
			val++
		}
	}
	return b.Build()
}

func openTestCoord(t *testing.T, path string, clk *fakeClock) *Coordinator {
	t.Helper()
	cfg := Config{HeartbeatTimeout: 100 * time.Millisecond}
	if clk != nil {
		cfg.now = clk.Now
	}
	c, err := Open(path, cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return c
}

// sideFiles lists the history side files next to the WAL at path.
func sideFiles(t *testing.T, path string) []string {
	t.Helper()
	ents, err := os.ReadDir(path + ".d")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// runTask executes a fabric task the way a worker would — decoding the
// payload to a columnar index — and returns the result to push.
func runTask(t *testing.T, task *api.FabricTask) api.FabricResult {
	t.Helper()
	res, err := execTask(task)
	if err != nil {
		t.Fatalf("%s/%d: %v", task.Job, task.Component, err)
	}
	return res
}

// execTask is runTask for callers without a *testing.T.
func execTask(task *api.FabricTask) (api.FabricResult, error) {
	ix, err := history.ReadMTCBIndexed(bytes.NewReader(task.HistoryMTCB))
	if err != nil {
		return api.FabricResult{}, fmt.Errorf("decoding mtcb payload: %w", err)
	}
	rep, err := checker.Default.Run(context.Background(), task.Checker, ix.History(), checker.Options{
		Level: checker.Level(task.Level), Window: task.Window, Index: ix,
	})
	if err != nil {
		return api.FabricResult{}, fmt.Errorf("engine run: %w", err)
	}
	return api.FabricResult{Job: task.Job, Component: task.Component, Epoch: task.Epoch, Report: &rep}, nil
}

// drain pulls and completes work as the named worker until the
// coordinator has none left for it.
func drain(t *testing.T, c *Coordinator, workerID string) int {
	t.Helper()
	done := 0
	for {
		task, err := c.Pull(workerID)
		if err != nil {
			t.Fatalf("pull(%s): %v", workerID, err)
		}
		if task == nil {
			return done
		}
		accepted, err := c.PushResult(workerID, runTask(t, task))
		if err != nil {
			t.Fatalf("push(%s): %v", workerID, err)
		}
		if !accepted {
			t.Fatalf("fresh result for %s/%d rejected", task.Job, task.Component)
		}
		done++
	}
}

// TestFabricDispatchFold checks the basic contract: a submitted job's
// components flow through two workers and the fold is bit-identical to
// single-node sharded checking (verdict, counts, components).
func TestFabricDispatchFold(t *testing.T) {
	c := openTestCoord(t, filepath.Join(t.TempDir(), "fabric.wal"), nil)
	defer func() {
		if err := c.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}()
	w1 := c.Register(api.WorkerHello{Name: "w1"})
	w2 := c.Register(api.WorkerHello{Name: "w2"})
	h := tenantHistory(4, 5)
	if err := c.Submit("j1", "mtc", h, checker.Options{Level: core.SI}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	n := drain(t, c, w1.ID) + drain(t, c, w2.ID)
	if n != 4 {
		t.Fatalf("completed %d components, want 4", n)
	}
	got, err := c.Wait(context.Background(), "j1")
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	eng, err := checker.Lookup("mtc")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := shard.Check(context.Background(), eng, h, checker.Options{Level: core.SI, Shard: 2})
	if err != nil {
		t.Fatalf("reference shard.Check: %v", err)
	}
	if got.OK != ref.OK || got.Txns != ref.Txns || got.Edges != ref.Edges ||
		got.ShardComponents != ref.ShardComponents || got.Checker != ref.Checker || got.Level != ref.Level {
		t.Fatalf("fabric verdict diverges from single-node sharded checking:\nfabric: %+v\nlocal:  %+v", got, ref)
	}
}

// TestFabricBinaryEncodingCached: a task carries its component as MTCB
// bytes that decode to the plan's sub-history, and the coordinator
// encodes each component once — a requeue re-serves the identical
// cached bytes instead of re-encoding.
func TestFabricBinaryEncodingCached(t *testing.T) {
	clk := newFakeClock()
	c := openTestCoord(t, filepath.Join(t.TempDir(), "fabric.wal"), clk)
	defer c.Close()
	w1 := c.Register(api.WorkerHello{Name: "w1", Codecs: []string{"mtcb"}})
	h := tenantHistory(1, 4)
	if err := c.Submit("j1", "mtc", h, checker.Options{Level: core.SI}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	task1, err := c.Pull(w1.ID)
	if err != nil || task1 == nil {
		t.Fatalf("pull: task=%v err=%v", task1, err)
	}
	dec, err := history.ReadMTCB(bytes.NewReader(task1.HistoryMTCB))
	if err != nil {
		t.Fatalf("decoding component %d: %v", task1.Component, err)
	}
	if !reflect.DeepEqual(dec, shard.Split(h).Components[task1.Component].H) {
		t.Fatalf("component %d: payload decodes to a different sub-history", task1.Component)
	}
	// Let w1 die; the component requeues under a fresh epoch.
	clk.Advance(time.Second)
	w2 := c.Register(api.WorkerHello{Name: "w2", Codecs: []string{"mtcb"}})
	task2, err := c.Pull(w2.ID)
	if err != nil || task2 == nil {
		t.Fatalf("pull after requeue: task=%v err=%v", task2, err)
	}
	if task2.Epoch <= task1.Epoch {
		t.Fatalf("requeued epoch %d not bumped past %d", task2.Epoch, task1.Epoch)
	}
	if &task1.HistoryMTCB[0] != &task2.HistoryMTCB[0] {
		t.Fatal("re-dispatch re-encoded the component instead of serving the cached bytes")
	}
}

// TestFabricSubmitIdempotent: resubmitting a known id is a no-op — the
// property that lets the server blindly resubmit recovered jobs — and
// the first submission's history side file stays the only one.
func TestFabricSubmitIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.wal")
	c := openTestCoord(t, path, nil)
	defer c.Close()
	h := tenantHistory(2, 3)
	var first []string
	for i := 0; i < 3; i++ {
		if err := c.Submit("j1", "mtc", h, checker.Options{Level: core.SER}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if i == 0 {
			first = sideFiles(t, path)
		}
	}
	if jobs := c.Jobs(); len(jobs) != 1 {
		t.Fatalf("idempotent submit created %d jobs, want 1", len(jobs))
	}
	if got := sideFiles(t, path); len(first) != 1 || !reflect.DeepEqual(got, first) {
		t.Fatalf("side files after resubmits: %v, first submit left %v", got, first)
	}
}

// TestFabricWorkStealing: no component is bound to a worker before it is
// pulled, so a worker registered after submission — while the first is
// busy on the giant component — receives the largest remaining one, and
// the small components never strand behind the giant.
func TestFabricWorkStealing(t *testing.T) {
	c := openTestCoord(t, filepath.Join(t.TempDir(), "fabric.wal"), nil)
	defer c.Close()
	w1 := c.Register(api.WorkerHello{Name: "w1"})
	h := skewedHistory(2, 9, 3, 5)
	if err := c.Submit("j1", "mtc", h, checker.Options{Level: core.SER}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st := c.Status(); st.Unassigned != 4 {
		t.Fatalf("after submit: %+v", st)
	}
	// Components come out of shard.Split in tenant order.
	giant, err := c.Pull(w1.ID)
	if err != nil || giant == nil || giant.Component != 1 {
		t.Fatalf("first pull: task=%+v err=%v, want the 9-txn component 1", giant, err)
	}
	w2 := c.Register(api.WorkerHello{Name: "w2"})
	task, err := c.Pull(w2.ID)
	if err != nil || task == nil || task.Component != 3 {
		t.Fatalf("late worker's pull: task=%+v err=%v, want the 5-txn component 3", task, err)
	}
	st := c.Status()
	if st.Unassigned != 2 || st.Workers[0].InFlight != 1 || st.Workers[1].InFlight != 1 {
		t.Fatalf("after both pulls: %+v", st)
	}
	// w2 drains the small components while w1 is still on the giant.
	if _, err := c.PushResult(w2.ID, runTask(t, task)); err != nil {
		t.Fatal(err)
	}
	if n := drain(t, c, w2.ID); n != 2 {
		t.Fatalf("late worker drained %d components behind the giant, want 2", n)
	}
	if accepted, err := c.PushResult(w1.ID, runTask(t, giant)); err != nil || !accepted {
		t.Fatalf("giant push: accepted=%v err=%v", accepted, err)
	}
	if _, err := c.Wait(context.Background(), "j1"); err != nil {
		t.Fatalf("wait: %v", err)
	}
}

// TestFabricWorkerDeathEpochGuard is the at-most-once fold contract: a
// worker that misses its heartbeat window has its in-flight component
// re-dispatched under a fresh epoch, and the straggler's late result is
// discarded rather than folded twice. Neither dispatch nor requeue
// reaches the WAL.
func TestFabricWorkerDeathEpochGuard(t *testing.T) {
	clk := newFakeClock()
	path := filepath.Join(t.TempDir(), "fabric.wal")
	c := openTestCoord(t, path, clk)
	defer c.Close()
	w1 := c.Register(api.WorkerHello{Name: "w1"})
	w2 := c.Register(api.WorkerHello{Name: "w2"})
	if err := c.Submit("j1", "mtc", tenantHistory(1, 4), checker.Options{Level: core.SER}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	task1, err := c.Pull(w1.ID)
	if err != nil || task1 == nil {
		t.Fatalf("w1 pull: task=%v err=%v", task1, err)
	}
	res1 := runTask(t, task1) // w1 computes, then stalls before pushing

	// w1 goes silent past the heartbeat window; w2's next interaction
	// sweeps it and requeues the component under a bumped epoch.
	clk.Advance(150 * time.Millisecond)
	task2, err := c.Pull(w2.ID)
	if err != nil || task2 == nil {
		t.Fatalf("w2 pull after sweep: task=%v err=%v", task2, err)
	}
	if task2.Job != task1.Job || task2.Component != task1.Component {
		t.Fatalf("w2 pulled %s/%d, want the requeued %s/%d", task2.Job, task2.Component, task1.Job, task1.Component)
	}
	if task2.Epoch <= task1.Epoch {
		t.Fatalf("re-dispatch epoch %d not beyond original %d", task2.Epoch, task1.Epoch)
	}

	// The presumed-dead worker's push must be rejected as stale.
	accepted, err := c.PushResult(w1.ID, res1)
	if err != nil {
		t.Fatalf("stale push: %v", err)
	}
	if accepted {
		t.Fatal("stale-epoch result was accepted")
	}
	if st := c.Status(); st.Jobs[0].State != JobPending {
		t.Fatalf("job terminal after stale push: %+v", st.Jobs[0])
	}

	// The current-epoch result folds.
	accepted, err = c.PushResult(w2.ID, runTask(t, task2))
	if err != nil || !accepted {
		t.Fatalf("current-epoch push: accepted=%v err=%v", accepted, err)
	}
	rep, err := c.Wait(context.Background(), "j1")
	if err != nil || !rep.OK {
		t.Fatalf("wait: %+v %v", rep, err)
	}
	if types := walTypes(t, path); len(types) != 3 || types[recJob] != 1 || types[recResult] != 1 || types[recDone] != 1 {
		t.Fatalf("WAL records after two dispatches and a requeue: %v, want one job, result and done", types)
	}
}

// TestFabricRestartResume is the durability tentpole: completed jobs
// come back from the WAL served without re-running, pending jobs resume
// where they stopped while the pre-crash worker's lease stays refused, a
// pending job whose history side file is corrupt comes back failed, and
// no side file outlives its job.
func TestFabricRestartResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.wal")
	c1 := openTestCoord(t, path, nil)
	w := c1.Register(api.WorkerHello{Name: "w1"})
	hA, hB := tenantHistory(2, 4), tenantHistory(3, 4)
	if err := c1.Submit("jA", "mtc", hA, checker.Options{Level: core.SI}); err != nil {
		t.Fatal(err)
	}
	if n := drain(t, c1, w.ID); n != 2 {
		t.Fatalf("jA drained %d components, want 2", n)
	}
	repA, err := c1.Wait(context.Background(), "jA")
	if err != nil {
		t.Fatalf("jA wait: %v", err)
	}
	if err := c1.Submit("jB", "mtc", hB, checker.Options{Level: core.SI}); err != nil {
		t.Fatal(err)
	}
	// One component of jB is mid-flight at the "crash".
	inflight, err := c1.Pull(w.ID)
	if err != nil || inflight == nil {
		t.Fatalf("jB pull: %v", err)
	}
	// jC is pending too, and its side file rots while the coordinator is
	// down.
	if err := c1.Submit("jC", "mtc", hB, checker.Options{Level: core.SI}); err != nil {
		t.Fatal(err)
	}
	c1.mu.Lock()
	fileB, fileC := c1.jobs["jB"].side.name, c1.jobs["jC"].side.name
	c1.mu.Unlock()
	if err := c1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if files := sideFiles(t, path); !reflect.DeepEqual(files, []string{fileB, fileC}) && !reflect.DeepEqual(files, []string{fileC, fileB}) {
		t.Fatalf("side files at the crash: %v, want jB's and jC's only", files)
	}
	rot, err := os.ReadFile(filepath.Join(path+".d", fileC))
	if err != nil {
		t.Fatal(err)
	}
	rot[len(rot)/2] ^= 0x40
	if err := os.WriteFile(filepath.Join(path+".d", fileC), rot, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := openTestCoord(t, path, nil)
	defer c2.Close()
	jobs := c2.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("recovered %d jobs, want 3", len(jobs))
	}
	byID := map[string]JobInfo{}
	for _, j := range jobs {
		byID[j.ID] = j
	}
	// jA: terminal with the folded report, served straight from the WAL.
	if got := byID["jA"]; got.State != JobDone || got.Report == nil ||
		got.Report.OK != repA.OK || got.Report.Edges != repA.Edges || got.Report.Txns != repA.Txns {
		t.Fatalf("jA not recovered terminal: %+v", byID["jA"])
	}
	if rep, err := c2.Wait(context.Background(), "jA"); err != nil || rep.Edges != repA.Edges {
		t.Fatalf("jA wait after restart: %+v %v", rep, err)
	}
	// jB: pending with all three components queued again.
	if got := byID["jB"]; got.State != JobPending {
		t.Fatalf("jB not pending after restart: %+v", got)
	}
	// jC: failed, by name, and its file is gone.
	if got := byID["jC"]; got.State != JobFailed || !strings.Contains(got.Err, ErrHistoryFile.Error()) {
		t.Fatalf("jC over a corrupt side file: %+v", got)
	}
	if files := sideFiles(t, path); !reflect.DeepEqual(files, []string{fileB}) {
		t.Fatalf("side files after replay: %v, want jB's %s only", files, fileB)
	}
	// The pre-crash worker's lease is gone, even once the restarted
	// coordinator has issued as many leases as the first one had.
	w2 := c2.Register(api.WorkerHello{Name: "w2"})
	if _, err := c2.Pull(w.ID); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("stale lease pull: %v, want ErrUnknownWorker", err)
	}
	if _, err := c2.PushResult(w.ID, runTask(t, inflight)); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("stale lease push: %v, want ErrUnknownWorker", err)
	}
	seen := 0
	for {
		task, err := c2.Pull(w2.ID)
		if err != nil {
			t.Fatal(err)
		}
		if task == nil {
			break
		}
		if _, err := c2.PushResult(w2.ID, runTask(t, task)); err != nil {
			t.Fatal(err)
		}
		seen++
	}
	if seen != 3 {
		t.Fatalf("jB resumed %d components, want 3", seen)
	}
	rep, err := c2.Wait(context.Background(), "jB")
	if err != nil || !rep.OK {
		t.Fatalf("jB after restart: %+v %v", rep, err)
	}
	eng, _ := checker.Lookup("mtc")
	ref, err := shard.Check(context.Background(), eng, hB, checker.Options{Level: core.SI, Shard: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != ref.OK || rep.Edges != ref.Edges || rep.Txns != ref.Txns || rep.ShardComponents != ref.ShardComponents {
		t.Fatalf("resumed verdict diverges:\nfabric: %+v\nlocal:  %+v", rep, ref)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	// Every job is terminal: a third start serves both verdicts and the
	// failure from the log alone, over an empty side directory.
	c3 := openTestCoord(t, path, nil)
	defer c3.Close()
	if files := sideFiles(t, path); len(files) != 0 {
		t.Fatalf("side files after every job ended: %v", files)
	}
	for _, j := range c3.Jobs() {
		want := map[string]string{"jA": JobDone, "jB": JobDone, "jC": JobFailed}[j.ID]
		if j.State != want || (want == JobDone) != (j.Report != nil) {
			t.Fatalf("%s after the third start: %+v", j.ID, j)
		}
	}
	if rep, err := c3.Wait(context.Background(), "jB"); err != nil || rep.Edges != ref.Edges {
		t.Fatalf("jB served from the log: %+v %v", rep, err)
	}
}

// TestFabricLeaseDiesWithIncarnation: a lease names the coordinator
// incarnation that issued it. After a restart and one fresh
// registration, every call the pre-restart worker makes is refused, so
// its calls cannot keep the fresh worker's lease alive: once the fresh
// worker falls silent past the heartbeat window, the component it holds
// is requeued while the old process keeps calling.
func TestFabricLeaseDiesWithIncarnation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.wal")
	clk := newFakeClock()
	c1 := openTestCoord(t, path, clk)
	old := c1.Register(api.WorkerHello{Name: "old"})
	if err := c1.Submit("j1", "mtc", tenantHistory(1, 3), checker.Options{Level: core.SER}); err != nil {
		t.Fatal(err)
	}
	stale, err := c1.Pull(old.ID)
	if err != nil || stale == nil {
		t.Fatalf("pull before the restart: task=%v err=%v", stale, err)
	}
	staleRes := runTask(t, stale)
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := openTestCoord(t, path, clk)
	defer c2.Close()
	fresh := c2.Register(api.WorkerHello{Name: "fresh"})
	if fresh.ID == old.ID {
		t.Fatalf("the restarted coordinator re-issued lease %s", old.ID)
	}
	held, err := c2.Pull(fresh.ID)
	if err != nil || held == nil {
		t.Fatalf("fresh pull: task=%v err=%v", held, err)
	}
	// The fresh worker goes silent; the old process keeps calling.
	for i := 0; i < 5; i++ {
		clk.Advance(40 * time.Millisecond)
		if task, err := c2.Pull(old.ID); !errors.Is(err, ErrUnknownWorker) {
			t.Fatalf("old lease pull: task=%+v err=%v, want ErrUnknownWorker", task, err)
		}
		if err := c2.Heartbeat(old.ID); !errors.Is(err, ErrUnknownWorker) {
			t.Fatalf("old lease heartbeat: %v, want ErrUnknownWorker", err)
		}
		if accepted, err := c2.PushResult(old.ID, staleRes); accepted || !errors.Is(err, ErrUnknownWorker) {
			t.Fatalf("old lease push: accepted=%v err=%v, want ErrUnknownWorker", accepted, err)
		}
	}
	// 200 ms of silence against a 100 ms timeout: the next live call
	// sweeps the fresh worker and its component is served again.
	next := c2.Register(api.WorkerHello{Name: "next"})
	task, err := c2.Pull(next.ID)
	if err != nil || task == nil || task.Job != held.Job || task.Component != held.Component {
		t.Fatalf("pull after the fresh worker's silence: task=%+v err=%v, want the requeued %s/%d", task, err, held.Job, held.Component)
	}
	if st := c2.Status(); st.Workers[0].InFlight != 0 || st.Workers[1].InFlight != 1 {
		t.Fatalf("status after the requeue: %+v", st)
	}
	if accepted, err := c2.PushResult(next.ID, runTask(t, task)); !accepted || err != nil {
		t.Fatalf("push of the requeued component: accepted=%v err=%v", accepted, err)
	}
	if rep, err := c2.Wait(context.Background(), "j1"); err != nil || !rep.OK {
		t.Fatalf("wait: %+v %v", rep, err)
	}
}

// walTypes counts the WAL's records by type.
func walTypes(t *testing.T, path string) map[string]int {
	t.Helper()
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	types := make(map[string]int)
	for _, line := range bytes.Split(log, []byte("\n"))[1:] {
		if len(line) == 0 {
			continue
		}
		rec := recordOf(line)
		if rec == nil {
			t.Fatalf("undecodable WAL line %q", line)
		}
		types[rec.Type]++
	}
	return types
}

// TestFabricWALReplaysDispatchRecords: a log in the format of releases
// that logged every dispatch — assign and requeue lines, and epoch and
// worker fields on every record — replays to the same job states. The
// dispatch records are skipped, a pending job's in-flight component is
// queued again at epoch 0, and the resumed job folds shard.Check's
// verdict; the restarted coordinator writes no dispatch record.
func TestFabricWALReplaysDispatchRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.wal")
	c1 := openTestCoord(t, path, nil)
	w := c1.Register(api.WorkerHello{})
	hB := tenantHistory(3, 4)
	if err := c1.Submit("jA", "mtc", tenantHistory(2, 4), checker.Options{Level: core.SI}); err != nil {
		t.Fatal(err)
	}
	drain(t, c1, w.ID)
	if err := c1.Submit("jB", "mtc", hB, checker.Options{Level: core.SI}); err != nil {
		t.Fatal(err)
	}
	first, err := c1.Pull(w.ID)
	if err != nil || first == nil {
		t.Fatalf("jB pull: task=%v err=%v", first, err)
	}
	if accepted, err := c1.PushResult(w.ID, runTask(t, first)); !accepted || err != nil {
		t.Fatalf("jB push: accepted=%v err=%v", accepted, err)
	}
	inflight, err := c1.Pull(w.ID)
	if err != nil || inflight == nil {
		t.Fatalf("jB second pull: task=%v err=%v", inflight, err)
	}
	before := c1.Jobs()
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the log the way such a release wrote it: an assign line
	// before every result, epoch (and, on results, worker) fields on
	// every record, and jB's in-flight component dispatched, requeued
	// after a worker death and dispatched again.
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(log, []byte("\n"))
	old := bytes.NewBuffer(slices.Clone(lines[0]))
	for _, line := range lines[1:] {
		rec := recordOf(line)
		if rec == nil {
			continue
		}
		extra := `,"epoch":0`
		if rec.Type == recResult {
			fmt.Fprintf(old, `{"type":"assign","job":%q,"component":%d,"epoch":1,"worker":"w1"}`+"\n", rec.Job, rec.Component)
			extra = `,"epoch":1,"worker":"w1"`
		}
		comp := fmt.Sprintf(`"component":%d`, rec.Component)
		old.Write(bytes.Replace(line, []byte(comp), []byte(comp+extra), 1))
	}
	for _, l := range []string{`"assign","job":"jB","component":%d,"epoch":1,"worker":"w1"`,
		`"requeue","job":"jB","component":%d,"epoch":2,"worker":"w1"`,
		`"assign","job":"jB","component":%d,"epoch":3,"worker":"w2"`} {
		fmt.Fprintf(old, `{"type":`+l+"}\n", inflight.Component)
	}
	if err := os.WriteFile(path, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if types := walTypes(t, path); types["assign"] != 5 || types["requeue"] != 1 {
		t.Fatalf("rewritten log holds %v", types)
	}

	c2 := openTestCoord(t, path, nil)
	defer c2.Close()
	after := c2.Jobs()
	if len(after) != len(before) {
		t.Fatalf("replayed %d jobs, want %d", len(after), len(before))
	}
	for i := range before {
		if after[i].ID != before[i].ID || after[i].State != before[i].State ||
			(before[i].Report == nil) != (after[i].Report == nil) ||
			before[i].Report != nil && canonReport(*after[i].Report) != canonReport(*before[i].Report) {
			t.Fatalf("job %s was %+v, replays %+v", before[i].ID, before[i], after[i])
		}
	}
	if st := c2.Status(); st.Unassigned != 2 || st.Jobs[1].Done != 1 {
		t.Fatalf("status after replay: %+v", st)
	}
	w2 := c2.Register(api.WorkerHello{})
	for {
		task, err := c2.Pull(w2.ID)
		if err != nil {
			t.Fatal(err)
		}
		if task == nil {
			break
		}
		if task.Epoch != 1 {
			t.Fatalf("resumed %s/%d at epoch %d, want 1", task.Job, task.Component, task.Epoch)
		}
		if accepted, err := c2.PushResult(w2.ID, runTask(t, task)); !accepted || err != nil {
			t.Fatalf("resumed push: accepted=%v err=%v", accepted, err)
		}
	}
	rep, err := c2.Wait(context.Background(), "jB")
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := checker.Lookup("mtc")
	ref, err := shard.Check(context.Background(), eng, hB, checker.Options{Level: core.SI, Shard: 2})
	if err != nil {
		t.Fatal(err)
	}
	if canonReport(rep) != canonReport(ref) {
		t.Fatalf("resumed verdict diverges:\nfabric: %s\nlocal:  %s", canonReport(rep), canonReport(ref))
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if types := walTypes(t, path); types["assign"] != 5 || types["requeue"] != 1 || types[recResult] != 5 || types[recDone] != 2 {
		t.Fatalf("log after the resumed fold holds %v", types)
	}
}

// TestFabricWALTornTail: a crash mid-append leaves an unterminated final
// line; reopening drops it and resumes cleanly.
func TestFabricWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.wal")
	c1 := openTestCoord(t, path, nil)
	if err := c1.Submit("j1", "mtc", tenantHistory(2, 3), checker.Options{Level: core.SER}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"result","job":"j1","compo`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := openTestCoord(t, path, nil)
	defer c2.Close()
	jobs := c2.Jobs()
	if len(jobs) != 1 || jobs[0].State != JobPending {
		t.Fatalf("recovery over torn tail: %+v", jobs)
	}
	// And the log is append-clean again: complete the job and reopen once
	// more.
	w := c2.Register(api.WorkerHello{})
	drain(t, c2, w.ID)
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	c3 := openTestCoord(t, path, nil)
	defer c3.Close()
	if jobs := c3.Jobs(); len(jobs) != 1 || jobs[0].State != JobDone {
		t.Fatalf("post-torn-tail completion not durable: %+v", jobs)
	}
}

// TestFabricWALReplaysRetiredOption: a job line logged by a release that
// still had the sparse_rt option replays — the decoder is lenient, and
// the option chose an encoding, never a verdict.
func TestFabricWALReplaysRetiredOption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.wal")
	c1 := openTestCoord(t, path, nil)
	if err := c1.Submit("j1", "mtc", tenantHistory(2, 3), checker.Options{Level: core.SSER}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(log, []byte(`{"type":"job",`), []byte(`{"type":"job","sparse_rt":true,`), 1)
	if bytes.Equal(old, log) {
		t.Fatal("no job record to rewrite")
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := openTestCoord(t, path, nil)
	defer c2.Close()
	w := c2.Register(api.WorkerHello{})
	drain(t, c2, w.ID)
	if rep, err := c2.Wait(context.Background(), "j1"); err != nil || !rep.OK || rep.Level != core.SSER {
		t.Fatalf("replayed job: report %+v, err %v", rep, err)
	}
}

// TestFabricWALCorruptMiddle: a malformed *terminated* line is
// corruption, not a torn append — Open must refuse to resume over it.
func TestFabricWALCorruptMiddle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.wal")
	if err := os.WriteFile(path, []byte(walHeader+"\n{not json}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Config{}); err == nil {
		t.Fatal("Open resumed over a corrupt record")
	}
}

// TestFabricCancelDurable: a cancelled job is terminal, its tasks are
// gone from every queue, and the cancellation survives a restart.
func TestFabricCancelDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.wal")
	c1 := openTestCoord(t, path, nil)
	w := c1.Register(api.WorkerHello{})
	if err := c1.Submit("j1", "mtc", tenantHistory(3, 3), checker.Options{Level: core.SER}); err != nil {
		t.Fatal(err)
	}
	task, err := c1.Pull(w.ID)
	if err != nil || task == nil {
		t.Fatal(err)
	}
	c1.Cancel("j1", "user gave up")
	if _, err := c1.Wait(context.Background(), "j1"); err == nil {
		t.Fatal("wait on cancelled job succeeded")
	}
	// The in-flight result is discarded, and no work remains.
	if accepted, _ := c1.PushResult(w.ID, runTask(t, task)); accepted {
		t.Fatal("result folded into a cancelled job")
	}
	if task, _ := c1.Pull(w.ID); task != nil {
		t.Fatalf("cancelled job still dispatches: %+v", task)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := openTestCoord(t, path, nil)
	defer c2.Close()
	if jobs := c2.Jobs(); len(jobs) != 1 || jobs[0].State != JobFailed {
		t.Fatalf("cancellation not durable: %+v", jobs)
	}
}

// TestFabricTerminalJobReleasesPlan: once a job folds or is cancelled
// the coordinator holds neither its split history nor its encoded
// components, and nothing that can still arrive for it — status reads,
// a straggler's result, a pull, a restart — needs them.
func TestFabricTerminalJobReleasesPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.wal")
	clk := newFakeClock()
	c := openTestCoord(t, path, clk)
	released := func(c *Coordinator, id string) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.jobs[id].p == nil && c.jobs[id].enc == nil && c.jobs[id].side == sideFile{}
	}
	status := func(id string) api.FabricJobStatus {
		for _, j := range c.Status().Jobs {
			if j.ID == id {
				return j
			}
		}
		t.Fatalf("job %s not in status", id)
		return api.FabricJobStatus{}
	}
	w1 := c.Register(api.WorkerHello{})
	if err := c.Submit("j1", "mtc", tenantHistory(3, 4), checker.Options{Level: core.SER}); err != nil {
		t.Fatal(err)
	}
	late, err := c.Pull(w1.ID)
	if err != nil || late == nil {
		t.Fatalf("pull: task=%v err=%v", late, err)
	}
	if released(c, "j1") {
		t.Fatal("pending job already lost its plan")
	}
	// w1 goes silent holding one component; w2 finishes the job.
	clk.Advance(time.Second)
	w2 := c.Register(api.WorkerHello{})
	if n := drain(t, c, w2.ID); n != 3 {
		t.Fatalf("survivor completed %d components, want 3", n)
	}
	if !released(c, "j1") {
		t.Fatal("folded job still holds its partition, encoded components or side file")
	}
	if files := sideFiles(t, path); len(files) != 0 {
		t.Fatalf("folded job left side files %v", files)
	}
	if st := status("j1"); st.State != JobDone || st.Components != 3 || st.Done != 3 {
		t.Fatalf("status after release: %+v", st)
	}
	if accepted, err := c.PushResult(w1.ID, runTask(t, late)); accepted || err != nil {
		t.Fatalf("straggler after the fold: accepted=%v err=%v", accepted, err)
	}
	if task, err := c.Pull(w2.ID); task != nil || err != nil {
		t.Fatalf("pull after the fold: task=%+v err=%v", task, err)
	}

	if err := c.Submit("j2", "mtc", tenantHistory(3, 4), checker.Options{Level: core.SER}); err != nil {
		t.Fatal(err)
	}
	if task, err := c.Pull(w2.ID); task == nil || err != nil {
		t.Fatalf("pull j2: task=%v err=%v", task, err)
	}
	c.Cancel("j2", "user gave up")
	if !released(c, "j2") {
		t.Fatal("cancelled job still holds its partition, encoded components or side file")
	}
	if files := sideFiles(t, path); len(files) != 0 {
		t.Fatalf("cancelled job left side files %v", files)
	}
	if st := status("j2"); st.State != JobFailed || st.Components != 3 || st.Done != 0 {
		t.Fatalf("status after cancel: %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The verdict is served from the log; replay drops the plans again.
	c2 := openTestCoord(t, path, nil)
	defer c2.Close()
	if rep, err := c2.Wait(context.Background(), "j1"); err != nil || !rep.OK || rep.ShardComponents != 3 {
		t.Fatalf("verdict after restart: %+v, err %v", rep, err)
	}
	if !released(c2, "j1") || !released(c2, "j2") {
		t.Fatal("replayed terminal jobs hold their partitions")
	}
}

// TestFabricWALEmptyJobID: a job record without an id is corruption.
// Replayed, it would become a job the server cannot number ("j<n>").
func TestFabricWALEmptyJobID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.wal")
	log := walHeader + "\n" +
		`{"type":"job","job":"","checker":"mtc","level":"SER","history_file":"job-1.mtcb","component":0,"epoch":0}` + "\n" +
		`{"type":"fail","job":"","component":0,"epoch":0,"error":"x"}` + "\n"
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Config{}); err == nil || !strings.Contains(err.Error(), "empty id") {
		t.Fatalf("Open over a job record with an empty id: %v", err)
	}
}

// TestFabricWALInlineHistoryRefused: a job line in the retired form,
// its history inline and no side file named, fails Open with an error
// that says so rather than replaying or guessing.
func TestFabricWALInlineHistoryRefused(t *testing.T) {
	hist, err := json.Marshal(tenantHistory(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fabric.wal")
	log := walHeader + "\n" +
		`{"type":"job","job":"j1","checker":"mtc","level":"SI","history":` + string(hist) + `,"component":0,"epoch":0}` + "\n"
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Config{}); err == nil || !strings.Contains(err.Error(), "retired inline-history form") {
		t.Fatalf("Open over an inline-history job record: %v", err)
	}
}

// TestFabricWALRetiredSkipPreCheck: a job record written by a binary
// that still had the pre-check switch and the parallelism option
// replays, and the job runs with the pre-check — the retired fields are
// dropped, not honoured, so a thin-air read the switch would have hidden
// is reported.
func TestFabricWALRetiredSkipPreCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.wal")
	c1 := openTestCoord(t, path, nil)
	if err := c1.Submit("j1", "mtc", history.FixtureByName("ThinAirRead").H, checker.Options{Level: core.SI}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(log, []byte(`{"type":"job",`), []byte(`{"type":"job","skip_precheck":true,"parallelism":4,`), 1)
	if bytes.Equal(old, log) {
		t.Fatal("no job record to rewrite")
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	c := openTestCoord(t, path, nil)
	defer c.Close()
	w := c.Register(api.WorkerHello{})
	if drain(t, c, w.ID) == 0 {
		t.Fatal("the replayed job dispatched no component")
	}
	rep, err := c.Wait(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || len(rep.Anomalies) == 0 {
		t.Fatalf("the pre-check must run on a replayed skip_precheck job: %+v", rep)
	}
}

// TestFabricEngineErrorFailsJob: a worker-side engine error fails the
// whole job, matching single-node sharded checking.
func TestFabricEngineErrorFailsJob(t *testing.T) {
	c := openTestCoord(t, filepath.Join(t.TempDir(), "fabric.wal"), nil)
	defer c.Close()
	w := c.Register(api.WorkerHello{})
	if err := c.Submit("j1", "mtc", tenantHistory(2, 3), checker.Options{Level: core.SER}); err != nil {
		t.Fatal(err)
	}
	task, err := c.Pull(w.ID)
	if err != nil || task == nil {
		t.Fatal(err)
	}
	accepted, err := c.PushResult(w.ID, api.FabricResult{
		Job: task.Job, Component: task.Component, Epoch: task.Epoch,
		Error: "engine exploded",
	})
	if err != nil || !accepted {
		t.Fatalf("error push: accepted=%v err=%v", accepted, err)
	}
	if _, err := c.Wait(context.Background(), "j1"); err == nil {
		t.Fatal("job with a failed component reported success")
	}
	if jobs := c.Jobs(); jobs[0].State != JobFailed {
		t.Fatalf("job state %q, want failed", jobs[0].State)
	}
}

// TestFabricEmptyResultFailsJob: a result with neither a report nor an
// error is an engine failure, not a no-op — dropped silently, its
// component would be neither queued nor in flight and the job would
// hang until the server-side timeout.
func TestFabricEmptyResultFailsJob(t *testing.T) {
	c := openTestCoord(t, filepath.Join(t.TempDir(), "fabric.wal"), nil)
	defer c.Close()
	w := c.Register(api.WorkerHello{})
	if err := c.Submit("j1", "mtc", tenantHistory(2, 3), checker.Options{Level: core.SER}); err != nil {
		t.Fatal(err)
	}
	task, err := c.Pull(w.ID)
	if err != nil || task == nil {
		t.Fatal(err)
	}
	accepted, err := c.PushResult(w.ID, api.FabricResult{Job: task.Job, Component: task.Component, Epoch: task.Epoch})
	if err != nil || !accepted {
		t.Fatalf("empty push: accepted=%v err=%v", accepted, err)
	}
	want := fmt.Sprintf("component %d: empty result", task.Component)
	if _, err := c.Wait(context.Background(), "j1"); err == nil || err.Error() != want {
		t.Fatalf("wait: %v, want %q", err, want)
	}
}

// TestFabricHostileGuaranteeSession: a worker's profile report naming a
// guarantee session its component does not hold folds — the session
// reads as -1 — both live and when a reopen replays the result records
// of a job whose done record never landed.
func TestFabricHostileGuaranteeSession(t *testing.T) {
	b := history.NewBuilder("x", "y")
	b.Txn(0, history.R("y", 0), history.W("y", 1))
	b.Txn(1, history.R("x", 0), history.W("x", 1))
	b.Txn(1, history.R("x", 1), history.W("x", 2))
	b.Txn(2, history.R("x", 2))
	b.Txn(2, history.R("x", 1))
	path := filepath.Join(t.TempDir(), "fabric.wal")
	c1 := openTestCoord(t, path, nil)
	w := c1.Register(api.WorkerHello{})
	if err := c1.Submit("j1", "profile", b.Build(), checker.Options{Level: core.SER}); err != nil {
		t.Fatal(err)
	}
	hostile, err := c1.Pull(w.ID)
	if err != nil || hostile == nil {
		t.Fatalf("pull: %v", err)
	}
	rep := checker.Report{Checker: "profile", Level: core.SER, Guarantees: []checker.GuaranteeVerdict{
		{Guarantee: "MR", Session: 7},
	}}
	if accepted, err := c1.PushResult(w.ID, api.FabricResult{
		Job: hostile.Job, Component: hostile.Component, Epoch: hostile.Epoch, Report: &rep,
	}); !accepted || err != nil {
		t.Fatalf("hostile push: accepted=%v err=%v", accepted, err)
	}
	// The fold unlinks the job's side file; keep it for the replay below.
	side := sideFiles(t, path)
	if len(side) != 1 {
		t.Fatalf("side files %v, want one", side)
	}
	sidePath := filepath.Join(path+".d", side[0])
	sideBytes, err := os.ReadFile(sidePath)
	if err != nil {
		t.Fatal(err)
	}
	if drain(t, c1, w.ID) != 1 {
		t.Fatal("the second component was not dispatched")
	}
	mrOf := func(c *Coordinator) checker.GuaranteeVerdict {
		t.Helper()
		got, err := c.Wait(context.Background(), "j1")
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range got.Guarantees {
			if g.Guarantee == "MR" {
				return g
			}
		}
		t.Fatalf("no MR verdict in %+v", got)
		return checker.GuaranteeVerdict{}
	}
	if g := mrOf(c1); g.OK || g.Session != -1 {
		t.Fatalf("live fold: MR %+v, want violated with session -1", g)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(log, []byte(`{"type":"done",`))
	if at < 0 {
		t.Fatal("no done record to cut")
	}
	if err := os.WriteFile(path, log[:at], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sidePath, sideBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := openTestCoord(t, path, nil)
	defer c2.Close()
	if g := mrOf(c2); g.OK || g.Session != -1 {
		t.Fatalf("replayed fold: MR %+v, want violated with session -1", g)
	}
}

// TestFabricStalePushKeepsInFlight: a straggler result from a worker
// that has since re-pulled the same component is discarded without
// touching the live dispatch, which still folds.
func TestFabricStalePushKeepsInFlight(t *testing.T) {
	clk := newFakeClock()
	c := openTestCoord(t, filepath.Join(t.TempDir(), "fabric.wal"), clk)
	defer c.Close()
	w := c.Register(api.WorkerHello{})
	if err := c.Submit("j1", "mtc", tenantHistory(1, 3), checker.Options{Level: core.SER}); err != nil {
		t.Fatal(err)
	}
	first, err := c.Pull(w.ID)
	if err != nil || first == nil {
		t.Fatal(err)
	}
	// w is presumed dead (another worker's beat sweeps it), then comes
	// back and pulls its own requeued component.
	clk.Advance(time.Second)
	if err := c.Heartbeat(c.Register(api.WorkerHello{}).ID); err != nil {
		t.Fatal(err)
	}
	second, err := c.Pull(w.ID)
	if err != nil || second == nil || second.Epoch <= first.Epoch {
		t.Fatalf("re-pull: task=%+v err=%v", second, err)
	}
	if accepted, err := c.PushResult(w.ID, runTask(t, first)); accepted || err != nil {
		t.Fatalf("stale push: accepted=%v err=%v", accepted, err)
	}
	if st := c.Status(); st.Workers[0].InFlight != 1 {
		t.Fatalf("stale push dropped the live dispatch: %+v", st)
	}
	if accepted, err := c.PushResult(w.ID, runTask(t, second)); !accepted || err != nil {
		t.Fatalf("current push: accepted=%v err=%v", accepted, err)
	}
	if rep, err := c.Wait(context.Background(), "j1"); err != nil || !rep.OK {
		t.Fatalf("wait: %+v %v", rep, err)
	}
}

// TestFabricWALFailureMutatesNothing: Pull writes nothing, so it still
// dispatches over a dead WAL; a PushResult whose append fails leaves the
// component un-done and in flight, and a failed Submit leaves no side
// file — nothing is lost to a state no sweep revisits.
func TestFabricWALFailureMutatesNothing(t *testing.T) {
	c := openTestCoord(t, filepath.Join(t.TempDir(), "fabric.wal"), nil)
	w := c.Register(api.WorkerHello{})
	if err := c.Submit("j1", "mtc", tenantHistory(2, 3), checker.Options{Level: core.SER}); err != nil {
		t.Fatal(err)
	}
	task, err := c.Pull(w.ID)
	if err != nil || task == nil {
		t.Fatal(err)
	}
	if err := c.wal.f.Close(); err != nil {
		t.Fatal(err)
	}
	other, err := c.Pull(w.ID)
	if err != nil || other == nil || other.Component == task.Component || other.Epoch != 1 {
		t.Fatalf("pull over a closed wal: task=%+v err=%v, want the other component at epoch 1", other, err)
	}
	if _, err := c.PushResult(w.ID, runTask(t, task)); err == nil {
		t.Fatal("push over a closed wal succeeded")
	}
	files := sideFiles(t, c.wal.f.Name())
	if err := c.Submit("j2", "mtc", tenantHistory(2, 3), checker.Options{Level: core.SER}); err == nil {
		t.Fatal("submit over a closed wal succeeded")
	}
	if got := sideFiles(t, c.wal.f.Name()); len(files) != 1 || !reflect.DeepEqual(got, files) {
		t.Fatalf("side files after a failed submit: %v, want only j1's %v", got, files)
	}
	st := c.Status()
	if len(st.Jobs) != 1 || st.Unassigned != 0 || st.Workers[0].InFlight != 2 || st.Jobs[0].Done != 0 {
		t.Fatalf("failed appends mutated the schedule: %+v", st)
	}
	c.mu.Lock()
	epochs := []int{c.jobs["j1"].comps[0].epoch, c.jobs["j1"].comps[1].epoch}
	c.mu.Unlock()
	if epochs[0] != 1 || epochs[1] != 1 {
		t.Fatalf("epochs after failed appends: %v, want one dispatch each", epochs)
	}
}

// TestFabricRejectsShardedTwinName: the coordinator's plan is the
// sharding; the retired twin name is an unknown checker like anywhere else.
func TestFabricRejectsShardedTwinName(t *testing.T) {
	c := openTestCoord(t, filepath.Join(t.TempDir(), "fabric.wal"), nil)
	defer c.Close()
	err := c.Submit("j1", "mtc-sharded", tenantHistory(2, 3), checker.Options{Level: core.SER})
	if err == nil || !strings.Contains(err.Error(), "unknown checker") {
		t.Fatalf("mtc-sharded: want an unknown-checker error, got %v", err)
	}
}
