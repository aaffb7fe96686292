package mtcserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mtc/internal/api"
	"mtc/internal/checker"
)

// Job-model defaults; Server fields override them.
const (
	DefaultWorkers     = 4
	DefaultQueueDepth  = 64
	DefaultJobTimeout  = time.Minute
	MaxRequestTimeout  = 10 * time.Minute
	DefaultMaxJobs     = 1024
	defaultRetryAfterS = 1
)

// job is one queued or executing whole-history check. The submit
// handler allocates it, a pool worker executes it under a per-job
// timeout, and DELETE cancels its context — which both dequeues a
// queued job (the worker drops it on pickup) and stops a running
// engine mid-loop.
type job struct {
	id      string
	checker string
	opts    checker.Options
	timeout time.Duration
	txns    int
	// distributed marks a job the fabric coordinator checks: giving up
	// on it must also cancel it there (abortJob).
	distributed bool
	// run executes the check under the job's timeout: the engine through
	// the registry, or — for a distributed job — the wait for the
	// coordinator's fold. The local closure holds the submitted history,
	// so run is released once the job is terminal and completed jobs do
	// not pin their histories in memory.
	run func(ctx context.Context) (checker.Report, error)

	// cancel aborts the job at any stage; ctx is its parent context.
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    string
	report   *checker.Report
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	events   []api.JobEvent
	subs     []chan api.JobEvent
}

// status snapshots the job's wire document.
func (j *job) status() api.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	doc := api.Job{
		ID: j.id, State: j.state,
		Checker: j.checker, Level: string(j.opts.Level),
		Txns: j.txns, Report: j.report, Error: j.errMsg,
		Shard: j.opts.Shard, Distributed: j.distributed,
		CreatedAt: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		doc.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		doc.FinishedAt = &t
	}
	return doc
}

// transition moves the job to state and broadcasts the event to every
// subscriber. It refuses to leave a terminal state (a cancel racing a
// completion keeps whichever landed first).
func (j *job) transition(state string, report *checker.Report, errMsg string) bool {
	j.mu.Lock()
	if api.JobTerminal(j.state) {
		j.mu.Unlock()
		return false
	}
	j.state = state
	now := time.Now()
	switch {
	case state == api.JobRunning:
		j.started = now
	case api.JobTerminal(state):
		j.finished = now
		j.run = nil // release the history; only the report is served now
	}
	j.report = report
	j.errMsg = errMsg
	ev := api.JobEvent{JobID: j.id, Seq: len(j.events), State: state, Report: report, Error: errMsg}
	j.events = append(j.events, ev)
	subs := make([]chan api.JobEvent, len(j.subs))
	copy(subs, j.subs)
	j.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ev:
		default: // subscriber stalled; it will re-sync from events on reconnect
		}
	}
	return true
}

// subscribe returns the replayed past events plus a channel for future
// ones. Callers must unsubscribe.
func (j *job) subscribe() ([]api.JobEvent, chan api.JobEvent) {
	ch := make(chan api.JobEvent, 8)
	j.mu.Lock()
	past := make([]api.JobEvent, len(j.events))
	copy(past, j.events)
	j.subs = append(j.subs, ch)
	j.mu.Unlock()
	return past, ch
}

func (j *job) unsubscribe(ch chan api.JobEvent) {
	j.mu.Lock()
	for i, s := range j.subs {
		if s == ch {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			break
		}
	}
	j.mu.Unlock()
}

// startWorkers lazily starts the pool on first submission, so a Server
// constructed literally (or by tests) needs no explicit lifecycle call.
func (s *Server) startWorkers() {
	s.workersOnce.Do(func() {
		s.queue = make(chan *job, s.queueDepth())
		for i := 0; i < s.workers(); i++ {
			go func() {
				for j := range s.queue {
					s.runJob(j)
				}
			}()
		}
	})
}

// Close stops the worker pool, the server's only goroutines, after the
// queued jobs drain; request traffic sweeps idle sessions, so nothing
// else runs. Submissions after Close are rejected with 503.
func (s *Server) Close() {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.startWorkers() // ensure the queue exists before closing it
	close(s.queue)
}

// abortJob makes giving up on a distributed job durable: the fabric
// job is canceled too, so a coordinator restart does not resume a job
// its submitter gave up on. Local jobs have nothing to undo.
func (s *Server) abortJob(j *job, reason string) {
	if j.distributed {
		s.Fabric.Cancel(j.id, reason)
	}
}

// runJob executes one job on a pool worker under its timeout and maps
// the outcome onto the job document.
func (s *Server) runJob(j *job) {
	if j.ctx.Err() != nil { // deleted while queued
		s.abortJob(j, "job canceled before execution")
		j.transition(api.JobCanceled, nil, "job canceled before execution")
		return
	}
	j.mu.Lock()
	run := j.run // snapshot under j.mu: a racing DELETE nils it in transition
	j.mu.Unlock()
	if !j.transition(api.JobRunning, nil, "") {
		s.abortJob(j, "job canceled")
		return
	}
	ctx, cancel := context.WithTimeout(j.ctx, j.timeout)
	defer cancel()
	rep, err := run(ctx)
	switch {
	case err == nil:
		j.transition(api.JobDone, &rep, "")
	case errors.Is(err, context.Canceled) && j.ctx.Err() != nil:
		s.abortJob(j, "job canceled")
		j.transition(api.JobCanceled, nil, "job canceled")
	case errors.Is(err, context.DeadlineExceeded):
		msg := "job timed out after " + j.timeout.String()
		s.abortJob(j, msg)
		j.transition(api.JobFailed, nil, msg)
	default:
		j.transition(api.JobFailed, nil, err.Error())
	}
}

// jobBodyHint is how much of a request's Content-Length handleJobSubmit
// takes on trust when it sizes the body buffer: enough that a job of
// tens of thousands of transactions is read into one allocation, little
// enough that a connection sending headers and nothing else pins a few
// MiB, not MaxBodyBytes.
const jobBodyHint = 8 << 20

// handleJobSubmit implements POST /v1/jobs: validate, enqueue, 202.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	// The body is read once into one buffer sized by Content-Length —
	// up to jobBodyHint: the header is a claim no byte has backed yet, so
	// past that the buffer grows with what actually arrives.
	hint := r.ContentLength
	if hint < 0 || hint > s.maxBodyBytes() {
		hint = 0
	}
	body := bytes.NewBuffer(make([]byte, 0, min(hint, jobBodyHint)+bytes.MinRead))
	if _, err := body.ReadFrom(r.Body); err != nil {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest, "bad job request: %v", err)
		return
	}
	req, err := api.DecodeJobRequest(body.Bytes())
	if err != nil {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest, "bad job request: %v", err)
		return
	}
	name := req.Checker
	if name == "" {
		name = s.defaultChecker()
	}
	if req.Parallelism != 0 {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest,
			"parallelism is retired (got %d): engines run serially; use shard to check components concurrently", req.Parallelism)
		return
	}
	// The shard knob tunes, it cannot oversubscribe the server with
	// goroutines. A request exceeding the host clamp is rejected with a
	// structured 400 rather than silently lowered — the caller asked for
	// a specific degree and must learn it is not available; the value an
	// accepted job runs with is echoed in its Job body.
	clamp := runtime.GOMAXPROCS(0)
	if req.Shard < 0 {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest, "shard must be >= 0, got %d", req.Shard)
		return
	}
	if req.Shard > clamp {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest,
			"shard %d exceeds the server's limit of %d (GOMAXPROCS)", req.Shard, clamp)
		return
	}
	c, err := s.reg.Lookup(name)
	if err != nil {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeUnknownChecker, "%v", err)
		return
	}
	if req.Distributed && s.Fabric == nil {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest,
			"this server is not a fabric coordinator (start it with -fabric-wal) and cannot run distributed jobs")
		return
	}
	if req.Window < 0 {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest, "window must be >= 0, got %d", req.Window)
		return
	}
	opts := checker.Options{Window: req.Window, Shard: req.Shard}
	if req.Level != "" {
		lvl, err := checker.ParseLevel(req.Level)
		if err != nil {
			s.v1Error(w, r, http.StatusBadRequest, api.CodeUnsupportedLevel, "%v", err)
			return
		}
		if !checker.Supports(c, lvl) {
			s.v1Error(w, r, http.StatusBadRequest, api.CodeUnsupportedLevel,
				"checker %s does not support level %q (supports %s)", c.Name(), lvl, checker.LevelNames(c.Levels()))
			return
		}
		opts.Level = lvl
	} else {
		opts.Level = c.Levels()[0]
	}
	if req.History == nil {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeInvalidHistory, "missing required field \"history\"")
		return
	}
	if err := req.History.Validate(); err != nil {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeInvalidHistory, "bad history: %v", err)
		return
	}
	timeout := s.jobTimeout()
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
		if timeout > MaxRequestTimeout {
			timeout = MaxRequestTimeout
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		checker: name, opts: opts, timeout: timeout,
		txns: len(req.History.Txns),
		ctx:  ctx, cancel: cancel,
		distributed: req.Distributed,
		state:       api.JobQueued, created: time.Now(),
	}
	if j.distributed {
		j.run = s.fabricWait(j)
	} else {
		h := req.History // the closure holds the history, not the whole request
		j.run = func(ctx context.Context) (checker.Report, error) {
			return s.reg.Run(ctx, name, h, opts)
		}
	}
	j.events = append(j.events, api.JobEvent{JobID: "", Seq: 0, State: api.JobQueued})

	s.startWorkers()
	s.jobsMu.Lock()
	s.nextJobID++
	j.id = "j" + strconv.Itoa(s.nextJobID)
	s.jobsMu.Unlock()
	j.events[0].JobID = j.id
	if j.distributed {
		// Register with the coordinator before the job is visible to the
		// pool: a pool worker only waits for the fold, and Wait on a job
		// the coordinator has not heard of yet fails it. The WAL append
		// inside Submit is also the durability point, so an accepted
		// distributed job survives a coordinator restart even if no pool
		// worker picked it up yet. (Submit is idempotent for recovered
		// jobs.)
		if err := s.Fabric.Submit(j.id, name, req.History, opts); err != nil {
			cancel()
			s.v1Error(w, r, http.StatusInternalServerError, api.CodeInternal, "fabric submission failed: %v", err)
			return
		}
	}
	// refuse undoes the submission of a job the pool will never see.
	refuse := func(reason string) {
		cancel()
		s.abortJob(j, reason)
	}
	s.jobsMu.Lock()
	if s.closed {
		s.jobsMu.Unlock()
		refuse("server is shutting down")
		s.v1Error(w, r, http.StatusServiceUnavailable, api.CodeInternal, "server is shutting down")
		return
	}
	s.evictTerminalLocked()
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.jobsMu.Unlock()
	default:
		s.jobsMu.Unlock()
		refuse("job queue is full")
		w.Header().Set("Retry-After", strconv.Itoa(defaultRetryAfterS))
		s.v1Error(w, r, http.StatusTooManyRequests, api.CodeQueueFull,
			"job queue is full (%d queued); retry shortly", s.queueDepth())
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleJobList implements GET /v1/jobs.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.jobsMu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.jobsMu.Unlock()
	out := api.JobList{Jobs: make([]api.Job, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, j.status())
	}
	// Deterministic order: job IDs are "j<n>", so sort by numeric suffix.
	sort.Slice(out.Jobs, func(i, k int) bool {
		return jobNum(out.Jobs[i].ID) < jobNum(out.Jobs[k].ID)
	})
	writeJSON(w, http.StatusOK, out)
}

// jobNum is the n of a "j<n>" id, 0 for any other spelling.
func jobNum(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "j"))
	return n
}

// evictTerminalLocked bounds the retained job table: when the cap is
// reached, the oldest terminal jobs are forgotten (their reports become
// 404s). Queued and running jobs are never evicted — they are already
// bounded by the queue depth and the worker count. Caller holds jobsMu.
func (s *Server) evictTerminalLocked() {
	max := s.MaxJobs
	if max <= 0 {
		max = DefaultMaxJobs
	}
	if len(s.jobs) < max {
		return
	}
	ids := make([]string, 0, len(s.jobs))
	for id, j := range s.jobs {
		j.mu.Lock()
		terminal := api.JobTerminal(j.state)
		j.mu.Unlock()
		if terminal {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, k int) bool { return jobNum(ids[i]) < jobNum(ids[k]) })
	for _, id := range ids {
		if len(s.jobs) < max {
			return
		}
		delete(s.jobs, id)
	}
}

// handleJobGet implements GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		s.v1Error(w, r, http.StatusNotFound, api.CodeNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobDelete implements DELETE /v1/jobs/{id}: cancel and forget.
// Cancelling the context stops a running worker at its next poll and
// makes a queued job a no-op when popped.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.jobsMu.Lock()
	j := s.jobs[id]
	delete(s.jobs, id)
	s.jobsMu.Unlock()
	if j == nil {
		s.v1Error(w, r, http.StatusNotFound, api.CodeNotFound, "unknown job %q", id)
		return
	}
	j.cancel()
	j.transition(api.JobCanceled, nil, "job canceled")
	w.WriteHeader(http.StatusNoContent)
}

// handleJobEvents implements GET /v1/jobs/{id}/events: an NDJSON stream
// of state transitions, replaying history first and then following the
// live job until it is terminal or the client disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		s.v1Error(w, r, http.StatusNotFound, api.CodeNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	past, ch := j.subscribe()
	defer j.unsubscribe(ch)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	enc := json.NewEncoder(w)
	seq := 0
	for _, ev := range past {
		_ = enc.Encode(ev)
		seq = ev.Seq + 1
		if api.JobTerminal(ev.State) {
			flush()
			return
		}
	}
	flush()
	for {
		select {
		case ev := <-ch:
			if ev.Seq < seq {
				continue // already replayed
			}
			seq = ev.Seq + 1
			_ = enc.Encode(ev)
			flush()
			if api.JobTerminal(ev.State) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) lookupJob(id string) *job {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	return s.jobs[id]
}
