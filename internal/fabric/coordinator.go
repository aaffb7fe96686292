// Package fabric turns the component sharding of internal/shard into a
// coordinator/worker checking fabric: a coordinator decomposes each
// submitted history with shard.Split into key/session-disjoint
// components — the distribution plan — dispatches the components to
// registered worker processes over the v1 wire contract, and folds the
// per-component verdicts with the position-preserving shard.Merge, so a
// distributed verdict is bit-identical to single-node sharded checking.
//
// Durability and robustness are first-class:
//
//   - every job and every component verdict persist to an NDJSON
//     write-ahead log, each job's history to an MTCB side file next to
//     it, so a coordinator restart resumes pending jobs where they
//     stopped and serves completed verdicts without re-running them;
//   - workers register, heartbeat, and pull work; a worker that misses
//     its heartbeats has its in-flight components re-dispatched under a
//     fresh epoch, and the epoch guard makes the verdict fold
//     at-most-once — a straggler's late result is discarded, never
//     folded twice. Dispatches are not logged: a lease names the
//     coordinator incarnation that issued it, so no worker from before
//     a restart can pull, beat or fold afterwards;
//   - skewed component sizes are handled by dispatch order: every
//     pending component waits in one ready queue, largest first, and a
//     pull takes its head — dispatch is pull-only, so an idle worker
//     always receives the largest remaining component, which is LPT
//     list scheduling without a placement decision to get wrong.
//
// The coordinator is passive: it owns no background goroutine. Liveness
// sweeps run lazily on every worker interaction, so tests drive time
// deterministically through the clock hook and a server shutdown has
// nothing to join.
package fabric

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"mtc/internal/api"
	"mtc/internal/checker"
	"mtc/internal/history"
	"mtc/internal/shard"
)

// Fabric job states.
const (
	JobPending = "pending"
	JobDone    = "done"
	JobFailed  = "failed"
)

// DefaultHeartbeatTimeout is how long a worker may stay silent before
// its in-flight components are re-dispatched.
const DefaultHeartbeatTimeout = 5 * time.Second

// Errors the HTTP layer maps to structured responses.
var (
	// ErrUnknownWorker names a worker id the coordinator does not know —
	// typically a lease an earlier incarnation issued before a restart.
	// The worker re-registers and continues.
	ErrUnknownWorker = errors.New("fabric: unknown worker")
	// ErrUnknownJob names a job id the coordinator has never been
	// submitted.
	ErrUnknownJob = errors.New("fabric: unknown job")
	// ErrClosed reports a submission to a closed coordinator.
	ErrClosed = errors.New("fabric: coordinator is closed")
)

// Config tunes Open.
type Config struct {
	// Registry resolves engine names; nil selects checker.Default.
	Registry *checker.Registry
	// HeartbeatTimeout is the worker liveness bound (default
	// DefaultHeartbeatTimeout). Leases advertise a third of it as the
	// beat interval.
	HeartbeatTimeout time.Duration
	// Logger receives dispatch/requeue/fold logs; nil discards them.
	Logger *slog.Logger

	// now substitutes the clock in tests; nil means time.Now.
	now func() time.Time
}

// JobInfo is the externally visible state of one fabric job, used by the
// server to re-adopt recovered jobs after a restart.
type JobInfo struct {
	ID     string
	State  string // JobPending, JobDone or JobFailed
	Engine string
	Opts   checker.Options
	Txns   int
	// Report is set when State is JobDone; Err when JobFailed.
	Report *checker.Report
	Err    string
}

// task is one schedulable component of a pending job.
type task struct {
	j    *fabJob
	comp int
	size int // transactions in the component, the skew measure
}

// before is the ready queue's total order: largest component first,
// then job submission order, then component index.
func (t *task) before(o *task) bool {
	if t.size != o.size {
		return t.size > o.size
	}
	if t.j.seq != o.j.seq {
		return t.j.seq < o.j.seq
	}
	return t.comp < o.comp
}

// compState tracks one component of a job.
type compState struct {
	// epoch is the component's current dispatch epoch in this
	// coordinator lifetime: bumped on every dispatch and on every
	// requeue, so exactly the latest dispatch can fold its verdict.
	epoch  int
	done   bool
	report checker.Report
}

// fabJob is one submitted fabric job.
type fabJob struct {
	id     string
	seq    int // position in submission order
	engine string
	opts   checker.Options
	txns   int
	p      *shard.Partition // nil once the job is terminal
	// side is the job's history side file, zero once the job is terminal.
	side  sideFile
	comps []compState
	// enc holds the MTCB encoding of each component, made when the plan
	// is (Submit, loadPlan) and served verbatim by every dispatch,
	// requeues included. Nil once the job is terminal.
	enc [][]byte
	// remaining counts components without a folded verdict.
	remaining int
	state     string
	report    *checker.Report
	errMsg    string
	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// workerState is one registered worker: its lease and the components
// dispatched to it (requeued if it dies).
type workerState struct {
	id       string
	num      int
	name     string
	inflight map[*task]struct{}
	lastSeen time.Time
}

// Coordinator is the fabric's scheduling and durability core. Safe for
// concurrent use; all HTTP handlers and the server's job path call into
// it.
type Coordinator struct {
	reg       *checker.Registry
	hbTimeout time.Duration
	logger    *slog.Logger
	now       func() time.Time

	// token is this incarnation's random lease suffix: every id Register
	// issues carries it, so no lease outlives the coordinator.
	token string

	mu         sync.Mutex
	wal        *wal
	jobs       map[string]*fabJob
	order      []string // submission order, for deterministic status listings
	workers    map[string]*workerState
	nextWorker int
	ready      []*task // every component awaiting dispatch, in task.before order
	closed     bool
}

// Open creates a coordinator over the WAL at path, replaying any prior
// log: completed jobs come back served from their logged verdicts, and
// pending jobs re-enqueue their unfinished components at epoch 0. A
// worker from before the restart holds a lease of another incarnation,
// which every call refuses with ErrUnknownWorker, so it can neither
// pull, beat nor fold.
func Open(path string, cfg Config) (*Coordinator, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = checker.Default
	}
	hb := cfg.HeartbeatTimeout
	if hb <= 0 {
		hb = DefaultHeartbeatTimeout
	}
	logger := cfg.Logger
	if logger == nil {
		logger = discardLogger
	}
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	var token [8]byte
	if _, err := rand.Read(token[:]); err != nil {
		return nil, err
	}
	c := &Coordinator{
		reg: reg, hbTimeout: hb, logger: logger, now: now,
		token:   hex.EncodeToString(token[:]),
		jobs:    make(map[string]*fabJob),
		workers: make(map[string]*workerState),
	}
	w, recs, err := openWAL(path)
	if err != nil {
		return nil, err
	}
	c.wal = w
	if err := c.replay(recs); err != nil {
		_ = w.Close()
		return nil, err
	}
	return c, nil
}

// replay rebuilds the job table from WAL records. The distribution plan
// is re-derived with shard.Split — deterministic for a given history —
// so component indices in result records line up.
func (c *Coordinator) replay(recs []walRecord) error {
	for _, rec := range recs {
		j := c.jobs[rec.Job]
		switch rec.Type {
		case recJob:
			if j != nil {
				return fmt.Errorf("fabric: wal: duplicate job record %q", rec.Job)
			}
			if rec.Job == "" {
				return fmt.Errorf("fabric: wal: job record with an empty id")
			}
			opts := checker.Options{Level: checker.Level(rec.Level), Window: rec.Window}
			switch {
			case rec.HistoryFile == "":
				return fmt.Errorf("fabric: wal: job %q names no history_file (the retired inline-history form is not read)", rec.Job)
			case rec.Txns < 0 || rec.Components < 0 || int64(rec.Components) > rec.HistoryBytes:
				// Every component holds a transaction, and every
				// transaction takes bytes of the side file.
				return fmt.Errorf("fabric: wal: job %q: %d components, %d txns in a %d-byte history", rec.Job, rec.Components, rec.Txns, rec.HistoryBytes)
			}
			j = c.insertJob(rec.Job, rec.Checker, opts, rec.Txns, rec.Components)
			j.side = sideFile{name: rec.HistoryFile, size: rec.HistoryBytes, crc: rec.HistoryCRC}
		case "assign", "requeue":
			// Dispatch records of older logs: epochs do not outlive the
			// coordinator, so they hold nothing a restart needs.
		case recResult:
			if j == nil || rec.Component < 0 || rec.Component >= len(j.comps) || rec.Report == nil {
				return fmt.Errorf("fabric: wal: bad result record for %q/%d", rec.Job, rec.Component)
			}
			if cs := &j.comps[rec.Component]; !cs.done {
				cs.done = true
				cs.report = *rec.Report
				j.remaining--
			}
		case recDone:
			if j == nil || rec.Report == nil {
				return fmt.Errorf("fabric: wal: bad done record for %q", rec.Job)
			}
			c.terminate(j, JobDone, rec.Report, "")
		case recFail:
			if j == nil {
				return fmt.Errorf("fabric: wal: fail record for unknown job %q", rec.Job)
			}
			c.terminate(j, JobFailed, nil, rec.Error)
		default:
			return fmt.Errorf("fabric: wal: unknown record type %q", rec.Type)
		}
	}
	// Resume: load the plan of every pending job from its side file,
	// enqueue the unfinished components, and fold jobs whose last result
	// landed right before the crash cut the done record off.
	for _, id := range c.order {
		j := c.jobs[id]
		if j.state != JobPending {
			continue
		}
		if err := c.loadPlan(j); err != nil {
			c.failLocked(j, err.Error())
			continue
		}
		if j.remaining == 0 {
			if err := c.fold(j); err != nil {
				return err
			}
			continue
		}
		c.enqueueJob(j)
		c.logger.Info("fabric: resumed pending job from wal", "job", j.id, "components", len(j.comps), "queued", j.remaining)
	}
	keep := make(map[string]bool)
	for _, j := range c.jobs {
		if j.state == JobPending {
			keep[j.side.name] = true
		}
	}
	return c.wal.sweepHistories(keep)
}

// loadPlan reads a replayed pending job's history from its side file,
// splits it and encodes its components, refusing a history that does not
// split into the transaction and component counts its job record logged.
func (c *Coordinator) loadPlan(j *fabJob) error {
	h, err := c.wal.readHistory(j.side)
	if err != nil {
		return err
	}
	p := shard.Split(h)
	if len(h.Txns) != j.txns || len(p.Components) != len(j.comps) {
		return fmt.Errorf("%w: %s splits into %d components of %d txns, the log recorded %d of %d",
			ErrHistoryFile, j.side.name, len(p.Components), len(h.Txns), len(j.comps), j.txns)
	}
	j.p, j.enc = p, encodeComponents(p)
	return nil
}

// insertJob registers a job of txns transactions and comps components;
// the caller sets its plan and side file, and logs the WAL record when
// this is a fresh submission rather than a replay.
func (c *Coordinator) insertJob(id, engine string, opts checker.Options, txns, comps int) *fabJob {
	j := &fabJob{
		id: id, seq: len(c.order), engine: engine, opts: opts, txns: txns,
		comps: make([]compState, comps),
		state: JobPending,
		done:  make(chan struct{}),
	}
	j.remaining = len(j.comps)
	c.jobs[id] = j
	c.order = append(c.order, id)
	return j
}

// terminate moves a job to a terminal state (idempotent) and releases
// its split history, component encodings and history side file: only
// dispatch, the fold and a resume read them, and none happens to a
// terminal job. Callers have logged the terminal record first.
func (c *Coordinator) terminate(j *fabJob, state string, report *checker.Report, errMsg string) {
	if j.state != JobPending {
		return
	}
	j.state = state
	j.report = report
	j.errMsg = errMsg
	j.p, j.enc = nil, nil
	c.wal.releaseHistory(j.side.name)
	j.side = sideFile{}
	c.dropJobTasks(j)
	close(j.done)
}

// Submit registers a job for distributed checking: split into its
// distribution plan, the history and every component encoded, the
// history written to a side file, the job logged to the WAL, and its
// components enqueued on the ready queue.
// Submitting an id the coordinator already knows is a no-op that writes
// nothing — the idempotence that lets the server resubmit recovered
// jobs blindly. The coordinator's plan is the sharding, so opts.Shard
// is dropped rather than forwarded to workers.
func (c *Coordinator) Submit(id, engine string, h *history.History, opts checker.Options) error {
	_, lvl, err := c.reg.Resolve(engine, string(opts.Level))
	if err != nil {
		return err
	}
	opts.Level, opts.Shard = lvl, 0
	c.mu.Lock()
	closed, known := c.closed, c.jobs[id] != nil
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if known {
		return nil
	}
	// Split, encode and write the side file before taking the lock every
	// Pull, PushResult and Heartbeat waits on: every encoding is cut from
	// the key column the split interned. The components encode on a
	// goroutine of their own while this one encodes the source and writes
	// and syncs the side file; both only read the partition, and the
	// encodings are joined before anything else.
	p := shard.Split(h)
	encoded := make(chan [][]byte)
	go func() { encoded <- encodeComponents(p) }()
	src, err := p.SourceMTCB()
	var side sideFile
	if err != nil {
		err = fmt.Errorf("fabric: mtcb encode: %w", err)
	} else if side, err = c.wal.writeHistory(src); err != nil {
		err = fmt.Errorf("fabric: wal history file: %w", err)
	}
	enc := <-encoded
	if err != nil {
		return err
	}
	rec, err := json.Marshal(walRecord{
		Type: recJob, Job: id, Checker: engine, Level: string(opts.Level),
		Window: opts.Window, Txns: len(h.Txns), Components: len(p.Components),
		HistoryFile: side.name, HistoryBytes: side.size, HistoryCRC: side.crc,
	})
	if err != nil {
		c.wal.removeHistory(side.name)
		return fmt.Errorf("fabric: wal append: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.jobs[id] != nil {
		// Closed meanwhile, or a concurrent submit of the same id won:
		// its job, and its side file, stay as they are.
		c.wal.removeHistory(side.name)
		if c.closed {
			return ErrClosed
		}
		return nil
	}
	if err := c.wal.write(rec); err != nil {
		c.wal.removeHistory(side.name)
		return fmt.Errorf("fabric: wal append: %w", err)
	}
	j := c.insertJob(id, engine, opts, len(h.Txns), len(p.Components))
	j.p, j.side, j.enc = p, side, enc
	if j.remaining == 0 {
		// Init-only history: nothing to dispatch, fold the empty plan.
		return c.fold(j)
	}
	c.enqueueJob(j)
	c.logger.Info("fabric: job submitted", "job", id, "engine", engine, "level", string(opts.Level), "components", len(j.comps))
	return nil
}

// Wait blocks until the job is terminal or ctx fires, returning the
// folded report. The caller cancels the fabric job itself if it stops
// caring (see Cancel) — a fired ctx here does not abort the job, since
// a durable job may be waited on again after a server restart.
func (c *Coordinator) Wait(ctx context.Context, id string) (checker.Report, error) {
	c.mu.Lock()
	j := c.jobs[id]
	c.mu.Unlock()
	if j == nil {
		return checker.Report{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return checker.Report{}, ctx.Err()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if j.state == JobDone {
		return *j.report, nil
	}
	return checker.Report{}, errors.New(j.errMsg)
}

// Cancel fails a pending job (user cancellation or a server-side
// timeout): its queued components are dropped, in-flight results will
// be discarded, and a restart will not resume it.
func (c *Coordinator) Cancel(id, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[id]
	if j == nil || j.state != JobPending {
		return
	}
	c.failLocked(j, reason)
}

// Register admits a worker and returns its lease, "w<n>-<token>": n
// counts registrations, and the token is this incarnation's.
func (c *Coordinator) Register(hello api.WorkerHello) api.WorkerLease {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextWorker++
	w := &workerState{
		id: "w" + strconv.Itoa(c.nextWorker) + "-" + c.token, num: c.nextWorker,
		name:     hello.Name,
		inflight: make(map[*task]struct{}),
		lastSeen: c.now(),
	}
	c.workers[w.id] = w
	c.logger.Info("fabric: worker registered", "worker", w.id, "name", w.name)
	return api.WorkerLease{ID: w.id, HeartbeatMillis: int64(c.hbTimeout / 3 / time.Millisecond)}
}

// Heartbeat refreshes a worker's lease.
func (c *Coordinator) Heartbeat(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if w == nil {
		return fmt.Errorf("%w: %q", ErrUnknownWorker, id)
	}
	w.lastSeen = c.now()
	c.sweepLocked()
	return nil
}

// Pull claims the head of the ready queue — the largest component still
// waiting — for a worker, under the component's next epoch. It writes
// nothing to the WAL. A nil task with nil error means "no work right
// now".
func (c *Coordinator) Pull(id string) (*api.FabricTask, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if w == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownWorker, id)
	}
	w.lastSeen = c.now()
	c.sweepLocked()
	t := c.popReady()
	if t == nil {
		return nil, nil
	}
	j := t.j
	cs := &j.comps[t.comp]
	cs.epoch++
	w.inflight[t] = struct{}{}
	return &api.FabricTask{
		Job: j.id, Component: t.comp, Epoch: cs.epoch,
		Checker: j.engine, Level: string(j.opts.Level), Window: j.opts.Window,
		HistoryMTCB: j.enc[t.comp],
	}, nil
}

// encodeComponents encodes every component of p: the job's task
// bodies, served verbatim by every dispatch of the component, requeues
// included.
func encodeComponents(p *shard.Partition) [][]byte {
	enc := make([][]byte, len(p.Components))
	for i := range enc {
		enc[i] = p.ComponentMTCB(i)
	}
	return enc
}

// popReady takes the head of the ready queue, skipping tasks of jobs
// that went terminal and components that are already done. Caller holds
// mu.
func (c *Coordinator) popReady() *task {
	for len(c.ready) > 0 {
		t := c.ready[0]
		c.ready = c.ready[1:]
		if t.j.state == JobPending && !t.j.comps[t.comp].done {
			return t
		}
	}
	return nil
}

// enqueue inserts t into the ready queue at its task.before position.
// Caller holds mu.
func (c *Coordinator) enqueue(t *task) {
	at := sort.Search(len(c.ready), func(i int) bool { return t.before(c.ready[i]) })
	c.ready = slices.Insert(c.ready, at, t)
}

// enqueueJob enqueues every component of j that has no folded verdict.
// Caller holds mu.
func (c *Coordinator) enqueueJob(j *fabJob) {
	for i := range j.comps {
		if !j.comps[i].done {
			c.enqueue(&task{j: j, comp: i, size: len(j.p.Components[i].H.Txns)})
		}
	}
}

// PushResult folds one component verdict. The fold is at-most-once: a
// result whose epoch does not match the component's current epoch — a
// straggler that was presumed dead and re-dispatched — is discarded
// with Accepted=false. An engine error — or a result carrying neither a
// report nor an error — fails the whole job, matching single-node
// sharded checking.
func (c *Coordinator) PushResult(workerID string, res api.FabricResult) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[workerID]
	if w == nil {
		return false, fmt.Errorf("%w: %q", ErrUnknownWorker, workerID)
	}
	w.lastSeen = c.now()
	c.sweepLocked()
	j := c.jobs[res.Job]
	if j == nil || j.state != JobPending {
		return false, nil
	}
	if res.Component < 0 || res.Component >= len(j.comps) {
		return false, nil
	}
	cs := &j.comps[res.Component]
	if cs.done || res.Epoch != cs.epoch {
		return false, nil
	}
	if res.Error != "" || res.Report == nil {
		msg := res.Error
		if msg == "" {
			msg = "empty result"
		}
		c.failLocked(j, fmt.Sprintf("component %d: %s", res.Component, msg))
		return true, nil
	}
	if err := c.wal.append(walRecord{Type: recResult, Job: j.id, Component: res.Component, Report: res.Report}); err != nil {
		return false, fmt.Errorf("fabric: wal append: %w", err)
	}
	cs.done = true
	cs.report = *res.Report
	// The component leaves the in-flight set only now: a stale or
	// unlogged result above must not strand the copy w still runs.
	for t := range w.inflight {
		if t.j == j && t.comp == res.Component {
			delete(w.inflight, t)
		}
	}
	j.remaining--
	if j.remaining == 0 {
		if err := c.fold(j); err != nil {
			return false, err
		}
	}
	return true, nil
}

// fold merges the per-component verdicts into the job's report and
// makes it durable. Caller holds mu.
func (c *Coordinator) fold(j *fabJob) error {
	reports := make([]checker.Report, len(j.comps))
	for i := range j.comps {
		reports[i] = j.comps[i].report
	}
	merged := shard.Merge(j.p, j.engine, j.opts.Level, reports)
	if err := c.wal.append(walRecord{Type: recDone, Job: j.id, Report: &merged}); err != nil {
		return fmt.Errorf("fabric: wal append: %w", err)
	}
	c.terminate(j, JobDone, &merged, "")
	c.logger.Info("fabric: job folded", "job", j.id, "ok", merged.OK, "components", len(j.comps))
	return nil
}

// failLocked makes a job failure durable and terminal. Caller holds mu.
func (c *Coordinator) failLocked(j *fabJob, msg string) {
	if err := c.wal.append(walRecord{Type: recFail, Job: j.id, Error: msg}); err != nil {
		c.logger.Error("fabric: wal append failed on job failure", "job", j.id, "err", err)
	}
	c.terminate(j, JobFailed, nil, msg)
	c.logger.Info("fabric: job failed", "job", j.id, "err", msg)
}

// sweepLocked requeues the work of workers that missed their heartbeat
// window: their in-flight components return to the ready queue under a
// bumped epoch, so the presumed-dead worker's late result can no longer
// fold. enqueue places each task by task.before, a total order, so the
// map order reaches neither the queue nor the epochs. Caller holds mu.
func (c *Coordinator) sweepLocked() {
	now := c.now()
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.hbTimeout || len(w.inflight) == 0 {
			continue
		}
		c.logger.Info("fabric: worker missed heartbeats, requeueing its work",
			"worker", w.id, "in_flight", len(w.inflight))
		for t := range w.inflight {
			if cs := &t.j.comps[t.comp]; t.j.state == JobPending && !cs.done {
				cs.epoch++
				c.enqueue(t)
			}
		}
		w.inflight = make(map[*task]struct{})
	}
}

// dropJobTasks removes a terminal job's tasks from the ready queue and
// every in-flight set.
func (c *Coordinator) dropJobTasks(j *fabJob) {
	c.ready = slices.DeleteFunc(c.ready, func(t *task) bool { return t.j == j })
	for _, w := range c.workers {
		for t := range w.inflight {
			if t.j == j {
				delete(w.inflight, t)
			}
		}
	}
}

// sortedWorkers lists workers in registration order — the map iteration
// fence that keeps status listings deterministic.
func (c *Coordinator) sortedWorkers() []*workerState {
	ws := make([]*workerState, 0, len(c.workers))
	for _, w := range c.workers {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(a, b int) bool { return ws[a].num < ws[b].num })
	return ws
}

// Jobs lists every known job in submission order — the server's
// re-adoption source after a restart.
func (c *Coordinator) Jobs() []JobInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]JobInfo, 0, len(c.order))
	for _, id := range c.order {
		j := c.jobs[id]
		out = append(out, JobInfo{
			ID: j.id, State: j.state, Engine: j.engine, Opts: j.opts,
			Txns: j.txns, Report: j.report, Err: j.errMsg,
		})
	}
	return out
}

// Status snapshots workers, the ready queue and jobs for GET /v1/fabric/status.
func (c *Coordinator) Status() api.FabricStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	st := api.FabricStatus{Workers: []api.FabricWorkerStatus{}, Jobs: []api.FabricJobStatus{}}
	for _, w := range c.sortedWorkers() {
		st.Workers = append(st.Workers, api.FabricWorkerStatus{
			ID: w.id, Name: w.name, InFlight: len(w.inflight),
			IdleMillis: int64(now.Sub(w.lastSeen) / time.Millisecond),
		})
	}
	for _, id := range c.order {
		j := c.jobs[id]
		st.Jobs = append(st.Jobs, api.FabricJobStatus{
			ID: j.id, State: j.state, Checker: j.engine, Level: string(j.opts.Level),
			Txns: j.txns, Components: len(j.comps), Done: len(j.comps) - j.remaining,
		})
	}
	st.Unassigned = len(c.ready)
	return st
}

// Close closes the WAL; pending jobs stay durable and resume on the
// next Open. The coordinator rejects further submissions but keeps
// answering reads, so an HTTP shutdown can drain politely.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.wal.Close()
}

// discardLogger stands in for a nil Logger: its handler is disabled at
// every level, so a record is dropped before it is formatted.
var discardLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
