package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mtc/internal/api"
	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/history"
	"mtc/internal/shard"
)

// Schedule-fuzz operations: the low nibble of an input byte selects the
// operation (mod nOps), the high nibble is its argument.
const (
	opRegister = iota // admit a worker (at most three per coordinator lifetime)
	opPull            // worker arg pulls
	opPush            // held task arg is checked and pushed by its holder
	opStale           // an answered or orphaned result arg is pushed again
	opEmpty           // held task arg is answered with neither report nor error
	opTick            // odd arg: past the heartbeat window; even: within it
	opBeat            // live or dead lease arg heartbeats (a live one sweeps)
	opCancel          // cancel job arg
	opRestart         // close the coordinator and reopen it on the same WAL
	opSubmit          // submit the next job
	nOps
)

func op(code, arg int) byte { return byte(arg<<4 | code) }

// fuzzJobs are the two jobs a schedule runs: one clean with one giant
// component, one whose second component is a lost update.
var fuzzJobs = sync.OnceValue(func() []fuzzJob {
	b := history.NewBuilder("a", "b")
	for v := history.Value(1); v <= 3; v++ {
		b.Txn(0, history.R("a", v-1), history.W("a", v))
	}
	b.Txn(1, history.R("b", 0), history.W("b", 1))
	b.Txn(2, history.R("b", 0), history.W("b", 2))
	jobs := []fuzzJob{{id: "jA", h: skewedHistory(1, 6, 2, 3)}, {id: "jB", h: b.Build()}}
	eng, err := checker.Lookup("mtc")
	if err != nil {
		panic(err)
	}
	for i := range jobs {
		ref, err := shard.Check(context.Background(), eng, jobs[i].h, checker.Options{Level: core.SI, Shard: 2})
		if err != nil {
			panic(err)
		}
		jobs[i].want = canonReport(ref)
	}
	return jobs
})

type fuzzJob struct {
	id   string
	h    *history.History
	want string // canonReport of shard.Check on h
}

// canonReport is a report modulo Timings, as JSON — the form a report
// takes through the WAL, so nil and empty slices compare equal.
func canonReport(r checker.Report) string {
	r.Timings = nil
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	return string(b)
}

type compKey struct {
	job  string
	comp int
}

type heldTask struct {
	worker string
	task   *api.FabricTask
}

// schedule is the fuzz harness: the coordinator under test plus the
// workers' side of the conversation.
type schedule struct {
	t         *testing.T
	path      string
	clk       *fakeClock
	c         *Coordinator
	workers   []string
	dead      []string           // leases of earlier incarnations
	held      []heldTask         // pulled, not yet answered
	answered  []api.FabricResult // pushed once already in this incarnation
	orphans   []api.FabricResult // answered or held before a restart
	submitted int
	mayFail   map[string]bool // cancelled, or sent an empty result
	accepted  map[compKey]int
}

func (s *schedule) open() {
	c, err := Open(s.path, Config{HeartbeatTimeout: 100 * time.Millisecond, now: s.clk.Now})
	if err != nil {
		s.t.Fatalf("open: %v", err)
	}
	s.c = c
}

func (s *schedule) push(worker string, res api.FabricResult) bool {
	accepted, err := s.c.PushResult(worker, res)
	if err != nil {
		s.t.Fatalf("push(%s, %s/%d@%d): %v", worker, res.Job, res.Component, res.Epoch, err)
	}
	if accepted {
		s.accepted[compKey{res.Job, res.Component}]++
	}
	return accepted
}

// refused pushes res under a lease of an earlier incarnation, which
// must answer ErrUnknownWorker.
func (s *schedule) refused(lease string, res api.FabricResult) {
	if accepted, err := s.c.PushResult(lease, res); accepted || !errors.Is(err, ErrUnknownWorker) {
		s.t.Fatalf("push under dead lease %s: accepted=%v err=%v, want ErrUnknownWorker", lease, accepted, err)
	}
}

// take removes and returns held task i.
func (s *schedule) take(i int) heldTask {
	h := s.held[i]
	s.held = append(s.held[:i], s.held[i+1:]...)
	return h
}

func (s *schedule) pull(worker string) {
	task, err := s.c.Pull(worker)
	if err != nil {
		s.t.Fatalf("pull(%s): %v", worker, err)
	}
	if task == nil {
		return
	}
	s.held = append(s.held, heldTask{worker, task})
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	size := len(s.c.jobs[task.Job].p.Components[task.Component].H.Txns)
	for _, r := range s.c.ready {
		if r.j.state == JobPending && !r.j.comps[r.comp].done && r.size > size {
			s.t.Fatalf("pull returned %s/%d (%d txns) while %s/%d (%d txns) waits", task.Job, task.Component, size, r.j.id, r.comp, r.size)
		}
	}
}

func (s *schedule) step(b byte) {
	code, arg := int(b&0x0f)%nOps, int(b>>4)
	switch code {
	case opRegister:
		if len(s.workers) < 3 {
			s.workers = append(s.workers, s.c.Register(api.WorkerHello{Codecs: []string{"mtcb"}}).ID)
		}
	case opPull:
		if len(s.workers) > 0 {
			s.pull(s.workers[arg%len(s.workers)])
		}
	case opPush:
		if len(s.held) > 0 {
			h := s.take(arg % len(s.held))
			res := runTask(s.t, h.task)
			s.push(h.worker, res)
			s.answered = append(s.answered, res)
		}
	case opStale:
		n := len(s.answered) + len(s.orphans)
		switch {
		case n == 0:
		case arg%n >= len(s.answered):
			// A result from before a restart can only come back under
			// the lease that pulled it, which the coordinator refuses.
			s.refused(s.dead[arg%len(s.dead)], s.orphans[arg%n-len(s.answered)])
		case len(s.workers) > 0:
			s.push(s.workers[arg%len(s.workers)], s.answered[arg%n])
		}
	case opEmpty:
		if len(s.held) > 0 {
			h := s.take(arg % len(s.held))
			if s.push(h.worker, api.FabricResult{Job: h.task.Job, Component: h.task.Component, Epoch: h.task.Epoch}) {
				s.mayFail[h.task.Job] = true
			}
		}
	case opTick:
		if arg%2 == 1 {
			s.clk.Advance(150 * time.Millisecond)
		} else {
			s.clk.Advance(40 * time.Millisecond)
		}
	case opBeat:
		n := len(s.workers) + len(s.dead)
		switch {
		case n == 0:
		case arg%n < len(s.workers):
			if err := s.c.Heartbeat(s.workers[arg%n]); err != nil {
				s.t.Fatalf("heartbeat: %v", err)
			}
		default:
			if err := s.c.Heartbeat(s.dead[arg%n-len(s.workers)]); !errors.Is(err, ErrUnknownWorker) {
				s.t.Fatalf("heartbeat under a dead lease: %v, want ErrUnknownWorker", err)
			}
		}
	case opCancel:
		if id := fuzzJobs()[arg%2].id; arg%2 < s.submitted {
			s.mayFail[id] = true
			s.c.Cancel(id, "fuzz cancel")
		}
	case opRestart:
		before := s.c.Jobs()
		if err := s.c.Close(); err != nil {
			s.t.Fatalf("close: %v", err)
		}
		s.open()
		after := s.c.Jobs()
		if len(after) != len(before) {
			s.t.Fatalf("restart recovered %d jobs, had %d", len(after), len(before))
		}
		for i := range before {
			if before[i].State != JobPending && after[i].State != before[i].State {
				s.t.Fatalf("job %s was %s, replays %s", before[i].ID, before[i].State, after[i].State)
			}
		}
		// Every lease died with the coordinator; what the workers held
		// or answered can only come back under a lease it refuses.
		s.orphans = append(s.orphans, s.answered...)
		for _, h := range s.held {
			s.orphans = append(s.orphans, runTask(s.t, h.task))
		}
		s.dead = append(s.dead, s.workers...)
		s.workers, s.held, s.answered = nil, nil, nil
	case opSubmit:
		if s.submitted < len(fuzzJobs()) {
			j := fuzzJobs()[s.submitted]
			if err := s.c.Submit(j.id, "mtc", j.h, checker.Options{Level: core.SI}); err != nil {
				s.t.Fatalf("submit %s: %v", j.id, err)
			}
			s.submitted++
		}
	}
}

// check asserts the scheduler's invariants on the coordinator's state.
func (s *schedule) check(after string) {
	s.t.Helper()
	for k, n := range s.accepted {
		if n > 1 {
			s.t.Fatalf("after %s: %s/%d folded %d times", after, k.job, k.comp, n)
		}
	}
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	where := make(map[compKey]int)
	for i, t := range c.ready {
		if i > 0 && !c.ready[i-1].before(t) {
			s.t.Fatalf("after %s: ready queue out of order at %d", after, i)
		}
		where[compKey{t.j.id, t.comp}]++
	}
	for _, w := range c.workers {
		for t := range w.inflight {
			where[compKey{t.j.id, t.comp}]++
		}
	}
	for _, j := range c.jobs {
		for i := range j.comps {
			n := where[compKey{j.id, i}]
			switch {
			case j.state != JobPending && n != 0:
				s.t.Fatalf("after %s: %s job %s still has component %d scheduled", after, j.state, j.id, i)
			case j.state == JobPending && !j.comps[i].done && n != 1:
				s.t.Fatalf("after %s: pending %s/%d is in %d places (ready queue + in-flight sets), want 1", after, j.id, i, n)
			}
		}
		if j.state == JobDone {
			s.wantReport(j.id, *j.report)
		}
	}
}

func (s *schedule) wantReport(id string, got checker.Report) {
	s.t.Helper()
	for _, fj := range fuzzJobs() {
		if fj.id == id && canonReport(got) != fj.want {
			s.t.Fatalf("job %s folded a report that is not shard.Check's:\nfabric: %s\nlocal:  %s", id, canonReport(got), fj.want)
		}
	}
}

// finish lets every worker die and drains the fabric through a fresh
// one: nothing may be left pending, and only a job that was cancelled or
// sent an empty result may have failed.
func (s *schedule) finish() {
	s.clk.Advance(time.Second)
	w := s.c.Register(api.WorkerHello{Codecs: []string{"mtcb"}}).ID
	for {
		task, err := s.c.Pull(w)
		if err != nil {
			s.t.Fatalf("final pull: %v", err)
		}
		if task == nil {
			break
		}
		s.push(w, runTask(s.t, task))
	}
	s.check("the final drain")
	for _, j := range s.c.Jobs() {
		switch {
		case j.State == JobPending:
			s.t.Fatalf("job %s is still pending after the final drain", j.ID)
		case j.State == JobFailed && !s.mayFail[j.ID]:
			s.t.Fatalf("job %s failed: %s", j.ID, j.Err)
		}
	}
}

// FuzzFabricSchedule drives the coordinator through an arbitrary
// interleaving of worker and client actions and asserts, after every
// step, that a component verdict folds at most once, that every un-done
// component of a pending job sits in the ready queue or in exactly one
// in-flight set, that a pull never passes over a larger waiting
// component, that a folded job carries shard.Check's report, and that a
// lease from before a restart is refused.
func FuzzFabricSchedule(f *testing.F) {
	// Two workers, one giant component: the late worker drains the rest.
	f.Add([]byte{op(opSubmit, 0), op(opRegister, 0), op(opPull, 0), op(opRegister, 0),
		op(opPull, 1), op(opPush, 1), op(opPull, 1), op(opPush, 1), op(opPull, 1), op(opPush, 1), op(opPush, 0)})
	// Worker death mid-component, and the straggler's late result.
	f.Add([]byte{op(opSubmit, 0), op(opRegister, 0), op(opRegister, 0), op(opPull, 0),
		op(opTick, 1), op(opPull, 1), op(opPush, 0), op(opPush, 0), op(opStale, 0)})
	// Restart with one result logged and one component in flight.
	f.Add([]byte{op(opSubmit, 0), op(opSubmit, 0), op(opRegister, 0), op(opPull, 0), op(opPush, 0),
		op(opPull, 0), op(opRestart, 0), op(opRegister, 0), op(opStale, 0), op(opStale, 1), op(opPull, 0)})
	// An empty result must fail the job, not strand the component.
	f.Add([]byte{op(opSubmit, 0), op(opRegister, 0), op(opPull, 0), op(opEmpty, 0)})
	// A dead worker comes back, re-pulls its component, and pushes the
	// first copy before the second.
	f.Add([]byte{op(opSubmit, 0), op(opRegister, 0), op(opRegister, 0), op(opPull, 0),
		op(opTick, 1), op(opBeat, 1), op(opPull, 0), op(opPush, 0), op(opPush, 0)})
	// A job cancelled with a component in flight, next to one that folds.
	f.Add([]byte{op(opSubmit, 0), op(opSubmit, 0), op(opRegister, 0), op(opPull, 0), op(opCancel, 0),
		op(opPush, 0), op(opPull, 0), op(opRestart, 0)})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		s := &schedule{
			t: t, path: filepath.Join(t.TempDir(), "fabric.wal"), clk: newFakeClock(),
			mayFail: make(map[string]bool), accepted: make(map[compKey]int),
		}
		s.open()
		defer func() { _ = s.c.Close() }()
		for i, b := range ops {
			s.step(b)
			s.check(fmt.Sprintf("step %d (op %d, arg %d)", i, int(b&0x0f)%nOps, b>>4))
		}
		s.finish()
	})
}
